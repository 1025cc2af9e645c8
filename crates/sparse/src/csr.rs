//! Compressed-sparse-row matrix with pooled SpMM/SpMV.
//!
//! Large products are dispatched over the persistent worker pool in
//! [`skipnode_tensor::pool`] — no per-call thread spawn/join. Output rows are
//! partitioned disjointly with a fixed per-row accumulation order, so results
//! are bit-identical for every `SKIPNODE_THREADS` value.
//!
//! Partitioning is **nnz-balanced**: chunk boundaries are found by binary
//! search on `indptr` so every pooled worker receives roughly the same
//! number of nonzeros, not the same number of rows. On degree-skewed graphs
//! (Barabási–Albert hubs, DC-SBM, real citation data) equal-row chunking
//! leaves most workers idle behind the one that drew the hub rows; equal-nnz
//! chunking balances them. Boundaries are cached per `(matrix, chunk_count)`
//! inside the matrix, so steady-state training epochs pay zero partitioning
//! cost.
//!
//! Two masked kernels serve SkipNode's fused layer op:
//! [`CsrMatrix::spmm_rows_subset`] computes only a caller-given set of
//! output rows (compacted), and [`CsrMatrix::spmm_cols_compact`] computes
//! the rows of the active set's neighborhood against a row-compacted dense
//! operand, skipping masked columns — together they make a skip ratio of `p`
//! cut ~`p` of the propagation flops in both the forward and backward pass.

use crate::stats;
use skipnode_tensor::simd;
use skipnode_tensor::{dropout_scale, kstats, pool, workspace, Matrix};
use std::sync::{Arc, Mutex, OnceLock};

/// Below this many multiply-adds (`nnz * feature_dim`), SpMM stays serial.
/// Public so serving tests can construct workloads that straddle it.
pub const SPMM_PARALLEL_THRESHOLD: usize = 1 << 18;
/// Below this many multiply-adds (`nnz`), SpMV stays serial.
const SPMV_PARALLEL_THRESHOLD: usize = 1 << 16;

/// Sentinel in a compact column map marking a masked (skipped) column.
pub const COL_SKIP: u32 = u32::MAX;

/// Input features count as sparse when at most `rows · cols /
/// SPARSE_INPUT_DENSITY_DIVISOR` of their entries are nonzero. Such inputs
/// run the input layer over their stored entries
/// ([`CsrMatrix::product_with_values`]) instead of the dense chain; the bound
/// is the measured crossover between the two (see `DESIGN.md` §8).
pub const SPARSE_INPUT_DENSITY_DIVISOR: usize = 16;

/// Lazily computed per-matrix metadata. Deliberately excluded from
/// equality/cloning: it is a cache of derived quantities, not state.
#[derive(Default)]
struct CsrCache {
    /// Whether the matrix equals its transpose (tolerance 1e-6).
    symmetric: OnceLock<bool>,
    /// Materialized transpose, shared with every consumer.
    transpose: OnceLock<Arc<CsrMatrix>>,
    /// nnz-balanced row boundaries keyed by chunk count. The pool resolves
    /// its thread count once per process, so in practice this holds one or
    /// two entries; a tiny scan beats hashing.
    partitions: Mutex<Vec<(usize, Arc<Vec<usize>>)>>,
}

/// A CSR sparse matrix of `f32` values.
///
/// Invariants (checked in [`CsrMatrix::new`]):
/// - `indptr.len() == rows + 1`, `indptr[0] == 0`, non-decreasing;
/// - `indices.len() == values.len() == indptr[rows]`;
/// - column indices within each row are strictly increasing and `< cols`.
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    indptr: Vec<usize>,
    indices: Vec<u32>,
    values: Vec<f32>,
    cache: CsrCache,
}

impl Clone for CsrMatrix {
    fn clone(&self) -> Self {
        Self {
            rows: self.rows,
            cols: self.cols,
            indptr: self.indptr.clone(),
            indices: self.indices.clone(),
            values: self.values.clone(),
            // Derived caches are recomputed on demand by the clone.
            cache: CsrCache::default(),
        }
    }
}

impl PartialEq for CsrMatrix {
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self.indptr == other.indptr
            && self.indices == other.indices
            && self.values == other.values
    }
}

impl std::fmt::Debug for CsrMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CsrMatrix")
            .field("rows", &self.rows)
            .field("cols", &self.cols)
            .field("indptr", &self.indptr)
            .field("indices", &self.indices)
            .field("values", &self.values)
            .finish()
    }
}

impl CsrMatrix {
    /// Construct from raw CSR arrays, validating all invariants.
    ///
    /// # Panics
    /// Panics if any CSR invariant is violated.
    pub fn new(
        rows: usize,
        cols: usize,
        indptr: Vec<usize>,
        indices: Vec<u32>,
        values: Vec<f32>,
    ) -> Self {
        assert_eq!(indptr.len(), rows + 1, "indptr length");
        assert_eq!(indptr[0], 0, "indptr must start at 0");
        assert_eq!(indices.len(), values.len(), "indices/values length");
        assert_eq!(*indptr.last().unwrap(), indices.len(), "indptr end");
        for r in 0..rows {
            assert!(indptr[r] <= indptr[r + 1], "indptr non-decreasing");
            let row = &indices[indptr[r]..indptr[r + 1]];
            for w in row.windows(2) {
                assert!(w[0] < w[1], "row {r}: columns must be strictly increasing");
            }
            if let Some(&last) = row.last() {
                assert!((last as usize) < cols, "row {r}: column out of range");
            }
        }
        Self {
            rows,
            cols,
            indptr,
            indices,
            values,
            cache: CsrCache::default(),
        }
    }

    /// Empty (all-zero) matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            indptr: vec![0; rows + 1],
            indices: Vec::new(),
            values: Vec::new(),
            cache: CsrCache::default(),
        }
    }

    /// Identity matrix in CSR form.
    pub fn identity(n: usize) -> Self {
        Self {
            rows: n,
            cols: n,
            indptr: (0..=n).collect(),
            indices: (0..n as u32).collect(),
            values: vec![1.0; n],
            cache: CsrCache::default(),
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored (structurally nonzero) entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Column indices and values of one row.
    #[inline]
    pub fn row(&self, r: usize) -> (&[u32], &[f32]) {
        let lo = self.indptr[r];
        let hi = self.indptr[r + 1];
        (&self.indices[lo..hi], &self.values[lo..hi])
    }

    /// Number of stored entries in one row.
    #[inline]
    pub fn row_nnz(&self, r: usize) -> usize {
        self.indptr[r + 1] - self.indptr[r]
    }

    /// Look up a single entry (binary search within the row).
    pub fn get(&self, r: usize, c: usize) -> f32 {
        let (cols, vals) = self.row(r);
        match cols.binary_search(&(c as u32)) {
            Ok(i) => vals[i],
            Err(_) => 0.0,
        }
    }

    /// True when every stored entry stays inside the diagonal block given
    /// by `offsets` (segment boundaries: `offsets[s]..offsets[s+1]` is
    /// block `s`, with `offsets[0] == 0` and the last offset == `rows`).
    ///
    /// A packed multi-graph adjacency must satisfy this — an SpMM over a
    /// block-diagonal matrix then provably never mixes rows of different
    /// graphs, which is what makes packed execution equivalent to a
    /// per-graph loop.
    pub fn is_block_diagonal(&self, offsets: &[usize]) -> bool {
        if offsets.first() != Some(&0) || offsets.last() != Some(&self.rows) {
            return false;
        }
        for s in 0..offsets.len() - 1 {
            let (lo, hi) = (offsets[s], offsets[s + 1]);
            for r in lo..hi {
                let (cols, _) = self.row(r);
                if cols
                    .iter()
                    .any(|&c| (c as usize) < lo || (c as usize) >= hi)
                {
                    return false;
                }
            }
        }
        true
    }

    /// Dense copy (test/debug helper; avoid on large matrices).
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            let (cols, vals) = self.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                m.set(r, c as usize, v);
            }
        }
        m
    }

    /// Sparse × dense product `self * x`, dispatched over the persistent
    /// pool for large products. The output buffer comes from the
    /// [`workspace`] free-list, so steady-state calls allocate nothing.
    ///
    /// # Panics
    /// Panics on an inner-dimension mismatch.
    pub fn spmm(&self, x: &Matrix) -> Matrix {
        let mut out = workspace::take_scratch(self.rows, x.cols());
        self.spmm_into(x, &mut out);
        out
    }

    /// `self * x` written into a caller-provided (possibly recycled) buffer;
    /// prior contents of `out` are ignored.
    ///
    /// # Panics
    /// Panics on an inner-dimension or output-shape mismatch.
    pub fn spmm_into(&self, x: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols,
            x.rows(),
            "spmm shape mismatch: {}x{} * {}x{}",
            self.rows,
            self.cols,
            x.rows(),
            x.cols()
        );
        assert_eq!(out.shape(), (self.rows, x.cols()), "spmm_into out shape");
        self.spmm_pooled(x, None, out);
    }

    /// `dropout(self * x)` into a caller-provided buffer: every element of
    /// the product multiplied, as its row is stored from registers, by `0`
    /// where `dropped` (row-major, one flag per output element) is set,
    /// else by `1 / (1 − rate)`. Bit for bit [`CsrMatrix::spmm_into`]
    /// followed by [`skipnode_tensor::apply_dropout`]: it is the backward
    /// of a dropout folded into a propagation, `dX = dropout(Ãᵀ·G)`,
    /// without the second pass over `dX`. Prior contents of `out` are
    /// ignored.
    ///
    /// # Panics
    /// Panics on an inner-dimension or output-shape mismatch, or when
    /// `dropped` does not hold one flag per output element.
    pub fn spmm_dropout_into(&self, x: &Matrix, dropped: &[bool], rate: f64, out: &mut Matrix) {
        assert_eq!(self.cols, x.rows(), "spmm_dropout inner dimension");
        assert_eq!(out.shape(), (self.rows, x.cols()), "spmm_dropout out shape");
        assert_eq!(dropped.len(), out.len(), "one dropout flag per output");
        self.spmm_pooled(x, Some((dropped, dropout_scale(rate))), out);
    }

    /// The pooled row split behind [`CsrMatrix::spmm_into`] and
    /// [`CsrMatrix::spmm_dropout_into`].
    fn spmm_pooled(&self, x: &Matrix, keep: Option<(&[bool], f32)>, out: &mut Matrix) {
        let d = x.cols();
        if d == 0 {
            return;
        }
        kstats::record(kstats::Kernel::Spmm, self.rows);
        if self.nnz() * d < SPMM_PARALLEL_THRESHOLD || self.rows <= 1 {
            self.spmm_rows_keep(x, keep, out.as_mut_slice(), 0, self.rows);
            return;
        }
        let bounds = self.nnz_partition(pool::chunk_count(self.rows));
        let elem_bounds: Vec<usize> = bounds.iter().map(|&r| r * d).collect();
        pool::par_ranges_mut(out.as_mut_slice(), &elem_bounds, |idx, block| {
            self.spmm_rows_keep(x, keep, block, bounds[idx], bounds[idx + 1]);
        });
    }

    /// nnz-balanced row boundaries for `chunks` chunks: `chunks + 1`
    /// non-decreasing row indices starting at 0 and ending at `rows`, chosen
    /// by binary search on `indptr` so each range `[b[i], b[i+1])` holds
    /// ~`nnz / chunks` stored entries. Cached per `(matrix, chunk_count)` —
    /// steady-state epochs pay only an `Arc` clone.
    pub fn nnz_partition(&self, chunks: usize) -> Arc<Vec<usize>> {
        let chunks = chunks.max(1);
        let mut cached = self
            .cache
            .partitions
            .lock()
            .expect("partition cache poisoned");
        if let Some((_, bounds)) = cached.iter().find(|(c, _)| *c == chunks) {
            return Arc::clone(bounds);
        }
        let nnz = self.nnz();
        let mut bounds = Vec::with_capacity(chunks + 1);
        bounds.push(0);
        for i in 1..chunks {
            let target = i * nnz / chunks;
            // First row whose prefix-nnz reaches the target; clamp to keep
            // boundaries non-decreasing when many rows are empty.
            let b = self.indptr.partition_point(|&p| p < target).min(self.rows);
            bounds.push(b.max(*bounds.last().unwrap()));
        }
        bounds.push(self.rows);
        let bounds = Arc::new(bounds);
        cached.push((chunks, Arc::clone(&bounds)));
        bounds
    }

    /// Serial reference kernel for output rows `[row_begin, row_end)` of
    /// `self * x`. Overwrites the corresponding block of `out` (stale
    /// contents are ignored); the pooled paths partition rows disjointly
    /// over this kernel.
    ///
    /// Each output row is one call of [`simd::spmm_row`], which sums the
    /// row's neighbors in CSR order from `+0` (on AVX2 with the row's
    /// 64-column panels held in registers across its nonzeros), so the
    /// result is invariant to schedule and row subsetting; vector ISAs
    /// differ from scalar only by FMA contraction.
    pub fn spmm_rows(&self, x: &Matrix, out: &mut [f32], row_begin: usize, row_end: usize) {
        self.spmm_rows_keep(x, None, out, row_begin, row_end);
    }

    /// [`CsrMatrix::spmm_rows`], each row scaled by its dropout factors as
    /// [`simd::spmm_row_dropout`] stores it when `keep` holds the flags of
    /// every output element and the keep scale.
    fn spmm_rows_keep(
        &self,
        x: &Matrix,
        keep: Option<(&[bool], f32)>,
        out: &mut [f32],
        row_begin: usize,
        row_end: usize,
    ) {
        stats::record_spmm_rows(row_end - row_begin);
        let isa = simd::active();
        let d = x.cols();
        for (local, r) in (row_begin..row_end).enumerate() {
            let (cols, vals) = self.row(r);
            let out_row = &mut out[local * d..(local + 1) * d];
            let row_of = |c: u32| Some(c as usize);
            match keep {
                None => simd::spmm_row(isa, cols, vals, row_of, x, out_row),
                Some((dropped, scale)) => {
                    let flags = &dropped[r * d..(r + 1) * d];
                    simd::spmm_row_dropout(isa, cols, vals, row_of, x, flags, scale, out_row)
                }
            }
        }
    }

    /// `self * x` computed **only** for the output rows listed in `rows`
    /// (sorted, duplicate-free), written compacted: row `k` of `out` is
    /// output row `rows[k]`. This is the forward half of SkipNode's fused
    /// layer kernel — skipped rows never enter the product. Pooled with
    /// nnz-balanced chunking over the subset; each row is the same
    /// [`simd::spmm_row`] call as in [`CsrMatrix::spmm_rows`], so computed
    /// rows match the full product bit-for-bit.
    ///
    /// # Panics
    /// Panics on shape mismatch or an out-of-range row index.
    pub fn spmm_rows_subset(&self, x: &Matrix, rows: &[u32], out: &mut Matrix) {
        assert_eq!(self.cols, x.rows(), "spmm_rows_subset inner dimension");
        spmm_subset_impl(
            self,
            x,
            |c| Some(c as usize),
            rows,
            out,
            kstats::Kernel::SpmmSubset,
        );
    }

    /// `self * X̂` computed **only** for the output rows listed in `rows`
    /// (sorted, duplicate-free), where `X̂` is given row-compacted:
    /// `col_map[c]` is the row of `x_compact` holding logical row `c` of
    /// `X̂`, or [`COL_SKIP`] if that row is all-zero (masked). Output row `k`
    /// of `out` is logical row `rows[k]`. This is the backward half of
    /// SkipNode's fused kernel: only the active rows carry gradient, and only
    /// the rows of `Ãᵀ` that read an active column (the active set's
    /// neighborhood) are computed. Masked columns are skipped instead of
    /// multiplied by zero, which leaves every finite accumulation unchanged;
    /// the surviving terms keep CSR order, so results match the full product
    /// bit-for-bit on every thread count. The row loop is
    /// [`CsrMatrix::spmm_rows_subset`]'s; the work is counted as
    /// [`kstats::Kernel::SpmmCompact`].
    ///
    /// # Panics
    /// Panics on shape mismatch, a stale map entry or an out-of-range row.
    pub fn spmm_cols_compact(
        &self,
        x_compact: &Matrix,
        col_map: &[u32],
        rows: &[u32],
        out: &mut Matrix,
    ) {
        assert_eq!(col_map.len(), self.cols, "spmm_cols_compact map length");
        spmm_subset_impl(
            self,
            x_compact,
            |c| mapped_row(col_map, c),
            rows,
            out,
            kstats::Kernel::SpmmCompact,
        );
    }

    /// Sparse × dense-vector product into a caller buffer (used by the
    /// spectral power iteration to avoid per-step allocation). Pooled over
    /// disjoint output ranges for large matrices.
    pub fn spmv_into(&self, x: &[f32], out: &mut [f32]) {
        assert_eq!(x.len(), self.cols, "spmv input length");
        assert_eq!(out.len(), self.rows, "spmv output length");
        kstats::record(kstats::Kernel::Spmv, self.rows);
        if self.nnz() < SPMV_PARALLEL_THRESHOLD || self.rows <= 1 {
            self.spmv_rows(x, out, 0);
            return;
        }
        let bounds = self.nnz_partition(pool::chunk_count(self.rows));
        pool::par_ranges_mut(out, &bounds, |idx, block| {
            self.spmv_rows(x, block, bounds[idx]);
        });
    }

    /// Serial SpMV over one output block starting at `row_begin`.
    fn spmv_rows(&self, x: &[f32], out: &mut [f32], row_begin: usize) {
        for (local, o) in out.iter_mut().enumerate() {
            let (cols, vals) = self.row(row_begin + local);
            let mut acc = 0.0f32;
            for (&c, &v) in cols.iter().zip(vals) {
                acc += v * x[c as usize];
            }
            *o = acc;
        }
    }

    /// The nonzero entries of a dense matrix as CSR, or `None` at the end
    /// of the first row that takes the count past `max_nnz` — so a dense
    /// input pays only the fraction of one pass it takes to cross the
    /// bound. `-0.0` is not stored (it compares equal to zero); NaN is.
    pub fn from_dense_within(m: &Matrix, max_nnz: usize) -> Option<CsrMatrix> {
        /// Columns tested at once; all-zero windows, most of a sparse row,
        /// cost one vectorized count.
        const WINDOW: usize = 32;
        let mut indptr = Vec::with_capacity(m.rows() + 1);
        let mut indices = Vec::new();
        let mut values = Vec::new();
        indptr.push(0);
        for r in 0..m.rows() {
            for (w, window) in m.row(r).chunks(WINDOW).enumerate() {
                if window.iter().filter(|&&v| v != 0.0).count() == 0 {
                    continue;
                }
                for (c, &v) in window.iter().enumerate() {
                    if v != 0.0 {
                        indices.push((w * WINDOW + c) as u32);
                        values.push(v);
                    }
                }
            }
            if indices.len() > max_nnz {
                return None;
            }
            indptr.push(indices.len());
        }
        Some(Self {
            rows: m.rows(),
            cols: m.cols(),
            indptr,
            indices,
            values,
            cache: CsrCache::default(),
        })
    }

    /// Flat row-major positions (`r · cols + c`) of the stored entries, in
    /// storage order.
    pub fn stored_positions(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.rows).flat_map(move |r| {
            let (cols, _) = self.row(r);
            cols.iter().map(move |&c| r * self.cols + c as usize)
        })
    }

    /// The stored values, in storage order (row by row, ascending columns).
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// `S = [adj ·] M` as CSR, where `M` is `self` with its stored values
    /// replaced by `values` (one per stored entry, e.g. `self`'s values
    /// after inverted dropout). Without `adj`, `S = M`.
    ///
    /// With `adj`, row `r` of `S` accumulates `adj[r, c] · M[c, :]` over
    /// `adj`'s row in CSR order through [`simd::axpy_scatter`], from `+0`,
    /// with ascending output columns. Each element therefore sees the same
    /// operations in the same order as in the dense `spmm` of `adj` with
    /// the densified `M`, minus the `a · 0` terms of entries `M` does not
    /// store, which are exact no-ops for finite `a`: the stored values are
    /// bit-identical to the dense product's, and every entry `S` does not
    /// store is `+0` there.
    ///
    /// # Panics
    /// Panics when `adj`'s columns do not match `self`'s rows, or `values`
    /// does not hold one value per stored entry.
    pub fn product_with_values(&self, adj: Option<&CsrMatrix>, values: &[f32]) -> CsrMatrix {
        assert_eq!(values.len(), self.nnz(), "one value per stored entry");
        let Some(adj) = adj else {
            return Self {
                rows: self.rows,
                cols: self.cols,
                indptr: self.indptr.clone(),
                indices: self.indices.clone(),
                values: values.to_vec(),
                cache: CsrCache::default(),
            };
        };
        assert_eq!(adj.cols, self.rows, "product_with_values inner dimension");
        let isa = simd::active();
        let f = self.cols;
        // Gustavson row accumulation: a dense accumulator row plus a bitset
        // of the columns this output row touched, read back in order.
        let mut acc = vec![0.0f32; f];
        let mut touched = vec![0u64; f.div_ceil(64)];
        // Products made bound the stored entries; reserving them up front
        // spares the output its regrowth.
        let products: usize = adj.indices.iter().map(|&c| self.row_nnz(c as usize)).sum();
        let capacity = products.min(adj.rows * f);
        let mut indptr = Vec::with_capacity(adj.rows + 1);
        let mut s_indices = Vec::with_capacity(capacity);
        let mut s_values = Vec::with_capacity(capacity);
        indptr.push(0);
        for r in 0..adj.rows {
            let (acols, avals) = adj.row(r);
            for (&c, &a) in acols.iter().zip(avals) {
                let (lo, hi) = (self.indptr[c as usize], self.indptr[c as usize + 1]);
                let mcols = &self.indices[lo..hi];
                for &p in mcols {
                    touched[p as usize / 64] |= 1 << (p % 64);
                }
                simd::axpy_scatter(isa, a, mcols, &values[lo..hi], &mut acc);
            }
            for (word_idx, word) in touched.iter_mut().enumerate() {
                let mut bits = std::mem::take(word);
                while bits != 0 {
                    let p = word_idx * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    s_indices.push(p as u32);
                    s_values.push(acc[p]);
                    acc[p] = 0.0;
                }
            }
            indptr.push(s_indices.len());
        }
        Self {
            rows: adj.rows,
            cols: f,
            indptr,
            indices: s_indices,
            values: s_values,
            cache: CsrCache::default(),
        }
    }

    /// `out = selfᵀ · g` (`self.cols × g.cols`); prior contents of `out` are
    /// ignored. Walks `self`'s rows `r` in ascending order and accumulates
    /// `self[r, p] · g[r, :]` into row `p` of `out` with [`simd::axpy`],
    /// skipping exact zeros — the order and the skip of the dense `Aᵀ·B`
    /// kernel, so the result is bit-identical to it on the densified matrix.
    ///
    /// # Panics
    /// Panics on a shape mismatch.
    pub fn t_spmm_into(&self, g: &Matrix, out: &mut Matrix) {
        assert_eq!(g.rows(), self.rows, "t_spmm_into inner dimension");
        assert_eq!(out.shape(), (self.cols, g.cols()), "t_spmm_into out shape");
        let isa = simd::active();
        out.as_mut_slice().fill(0.0);
        for r in 0..self.rows {
            let (cols, vals) = self.row(r);
            let g_row = g.row(r);
            for (&p, &v) in cols.iter().zip(vals) {
                if v == 0.0 {
                    continue;
                }
                simd::axpy(isa, v, g_row, out.row_mut(p as usize));
            }
        }
    }

    /// Transpose (needed to backpropagate through `Ã X` when `Ã` is not
    /// symmetric, e.g. row-normalized propagation).
    pub fn transpose(&self) -> CsrMatrix {
        let mut counts = vec![0usize; self.cols + 1];
        for &c in &self.indices {
            counts[c as usize + 1] += 1;
        }
        for i in 0..self.cols {
            counts[i + 1] += counts[i];
        }
        let indptr = counts.clone();
        let mut cursor = counts;
        let mut indices = vec![0u32; self.nnz()];
        let mut values = vec![0.0f32; self.nnz()];
        for r in 0..self.rows {
            let (cols, vals) = self.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                let slot = cursor[c as usize];
                indices[slot] = r as u32;
                values[slot] = v;
                cursor[c as usize] += 1;
            }
        }
        CsrMatrix::new(self.cols, self.rows, indptr, indices, values)
    }

    /// True if the matrix equals its transpose (within `tol`).
    pub fn is_symmetric(&self, tol: f32) -> bool {
        if self.rows != self.cols {
            return false;
        }
        let t = self.transpose();
        if t.indptr != self.indptr || t.indices != self.indices {
            return false;
        }
        self.values
            .iter()
            .zip(&t.values)
            .all(|(a, b)| (a - b).abs() <= tol)
    }

    /// Cached symmetry test (tolerance 1e-6, the value the autograd tape
    /// uses). The first call pays one O(nnz) transpose; every later call —
    /// e.g. `Tape::register_adj` on the same adjacency each epoch — is a
    /// flag read. An asymmetric matrix seeds [`CsrMatrix::transpose_arc`]
    /// with the transpose it had to build anyway.
    pub fn is_symmetric_cached(&self) -> bool {
        *self.cache.symmetric.get_or_init(|| {
            if self.rows != self.cols {
                return false;
            }
            let t = self.transpose();
            let symmetric = t.indptr == self.indptr
                && t.indices == self.indices
                && self
                    .values
                    .iter()
                    .zip(&t.values)
                    .all(|(a, b)| (a - b).abs() <= 1e-6);
            if !symmetric {
                // Symmetric matrices reuse themselves in backward; only
                // asymmetric ones need the transpose kept alive.
                let _ = self.cache.transpose.set(Arc::new(t));
            }
            symmetric
        })
    }

    /// Shared, cached transpose. Computed at most once per matrix; reuses
    /// the transpose built by [`CsrMatrix::is_symmetric_cached`] when that
    /// ran first.
    pub fn transpose_arc(&self) -> Arc<CsrMatrix> {
        Arc::clone(
            self.cache
                .transpose
                .get_or_init(|| Arc::new(self.transpose())),
        )
    }

    /// Out-degree-style row sums (for symmetric adjacency: node degrees).
    pub fn row_sums(&self) -> Vec<f64> {
        (0..self.rows)
            .map(|r| self.row(r).1.iter().map(|&v| v as f64).sum())
            .collect()
    }
}

/// Row of the compacted operand holding logical row `c`, or `None` for a
/// [`COL_SKIP`] (masked) column.
#[inline]
fn mapped_row(col_map: &[u32], c: u32) -> Option<usize> {
    let m = col_map[c as usize];
    (m != COL_SKIP).then_some(m as usize)
}

/// Shared routine behind the row-subset products (see
/// [`CsrMatrix::spmm_rows_subset`] and [`CsrMatrix::spmm_cols_compact`]
/// for semantics), counted under `kernel`: output row `k` is
/// [`simd::spmm_row`] of source row `rows[k]` against `x`, with `row_of`
/// naming the row of `x` each column reads. Pooled with nnz-balanced
/// chunking over the subset.
fn spmm_subset_impl<F>(
    src: &CsrMatrix,
    x: &Matrix,
    row_of: F,
    rows: &[u32],
    out: &mut Matrix,
    kernel: kstats::Kernel,
) where
    F: Fn(u32) -> Option<usize> + Sync,
{
    assert_eq!(out.shape(), (rows.len(), x.cols()), "spmm subset out shape");
    let d = x.cols();
    if d == 0 || rows.is_empty() {
        return;
    }
    kstats::record(kernel, rows.len());
    let isa = simd::active();
    // Prefix nonzero counts over the subset drive the pooled balance.
    let mut cum = Vec::with_capacity(rows.len() + 1);
    cum.push(0usize);
    for &r in rows {
        let r = r as usize;
        assert!(r < src.rows(), "spmm subset row out of range");
        cum.push(cum.last().unwrap() + src.row_nnz(r));
    }
    let sub_nnz = *cum.last().unwrap();
    let kernel = |out: &mut [f32], lo: usize, hi: usize| {
        stats::record_spmm_rows(hi - lo);
        for (local, &r) in rows[lo..hi].iter().enumerate() {
            let (cols, vals) = src.row(r as usize);
            let out_row = &mut out[local * d..(local + 1) * d];
            simd::spmm_row(isa, cols, vals, &row_of, x, out_row);
        }
    };
    if sub_nnz * d < SPMM_PARALLEL_THRESHOLD || rows.len() <= 1 {
        kernel(out.as_mut_slice(), 0, rows.len());
    } else {
        let chunks = pool::chunk_count(rows.len());
        let mut bounds = Vec::with_capacity(chunks + 1);
        bounds.push(0usize);
        for i in 1..chunks {
            let target = i * sub_nnz / chunks;
            let b = cum.partition_point(|&p| p < target).min(rows.len());
            bounds.push(b.max(*bounds.last().unwrap()));
        }
        bounds.push(rows.len());
        let elem_bounds: Vec<usize> = bounds.iter().map(|&k| k * d).collect();
        pool::par_ranges_mut(out.as_mut_slice(), &elem_bounds, |idx, block| {
            kernel(block, bounds[idx], bounds[idx + 1]);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        // [[1, 0, 2],
        //  [0, 3, 0],
        //  [4, 0, 0]]
        CsrMatrix::new(
            3,
            3,
            vec![0, 2, 3, 4],
            vec![0, 2, 1, 0],
            vec![1.0, 2.0, 3.0, 4.0],
        )
    }

    #[test]
    fn get_reads_stored_and_missing_entries() {
        let m = sample();
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(0, 1), 0.0);
        assert_eq!(m.get(0, 2), 2.0);
        assert_eq!(m.get(2, 0), 4.0);
    }

    #[test]
    fn spmm_matches_dense_product() {
        let m = sample();
        let x = Matrix::from_rows(&[&[1.0, 1.0], &[2.0, 0.0], &[0.0, 3.0]]);
        let got = m.spmm(&x);
        let want = m.to_dense().matmul(&x);
        assert_eq!(got, want);
    }

    #[test]
    fn identity_spmm_is_identity() {
        let i = CsrMatrix::identity(4);
        let x = Matrix::from_rows(&[&[1.0], &[2.0], &[3.0], &[4.0]]);
        assert_eq!(i.spmm(&x), x);
    }

    #[test]
    fn transpose_round_trips() {
        let m = sample();
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose().to_dense(), m.to_dense().transpose());
    }

    #[test]
    fn spmv_matches_spmm() {
        let m = sample();
        let x = [1.0f32, -1.0, 0.5];
        let mut out = [0.0f32; 3];
        m.spmv_into(&x, &mut out);
        let xm = Matrix::from_vec(3, 1, x.to_vec());
        let want = m.spmm(&xm);
        for (o, w) in out.iter().zip(want.as_slice()) {
            assert!((o - w).abs() < 1e-6);
        }
    }

    #[test]
    fn symmetric_detection() {
        assert!(CsrMatrix::identity(3).is_symmetric(0.0));
        assert!(!sample().is_symmetric(0.0));
    }

    #[test]
    #[should_panic(expected = "columns must be strictly increasing")]
    fn unsorted_columns_rejected() {
        let _ = CsrMatrix::new(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "column out of range")]
    fn out_of_range_column_rejected() {
        let _ = CsrMatrix::new(1, 2, vec![0, 1], vec![5], vec![1.0]);
    }

    #[test]
    fn large_spmm_threaded_path_matches_serial() {
        // Build a banded 600x600 matrix, wide enough feature dim to cross
        // the threading threshold.
        let n: usize = 600;
        let mut indptr = vec![0usize];
        let mut indices = Vec::new();
        let mut values = Vec::new();
        for r in 0..n {
            for c in r.saturating_sub(1)..(r + 2).min(n) {
                indices.push(c as u32);
                values.push((r + c) as f32 * 0.01 + 1.0);
            }
            indptr.push(indices.len());
        }
        let m = CsrMatrix::new(n, n, indptr, indices, values);
        let mut x = Matrix::zeros(n, 200);
        for r in 0..n {
            for c in 0..200 {
                x.set(r, c, ((r * 7 + c * 3) % 13) as f32 - 6.0);
            }
        }
        let got = m.spmm(&x);
        // serial reference
        let mut want = Matrix::zeros(n, 200);
        m.spmm_rows(&x, want.as_mut_slice(), 0, n);
        assert_eq!(got, want);
    }

    #[test]
    fn spmm_into_overwrites_stale_contents() {
        let m = sample();
        let x = Matrix::from_rows(&[&[1.0, 1.0], &[2.0, 0.0], &[0.0, 3.0]]);
        let mut out = Matrix::full(3, 2, f32::NAN);
        m.spmm_into(&x, &mut out);
        assert_eq!(out, m.to_dense().matmul(&x));
    }

    #[test]
    fn spmm_handles_empty_rows_and_vector_outputs() {
        // Row 1 is empty; output widths 1 (column vector) and 0.
        let m = CsrMatrix::new(3, 2, vec![0, 1, 1, 2], vec![1, 0], vec![2.0, -1.0]);
        let x = Matrix::from_rows(&[&[0.5], &[4.0]]);
        let got = m.spmm(&x);
        assert_eq!(got, Matrix::from_rows(&[&[8.0], &[0.0], &[-0.5]]));
        let empty = Matrix::zeros(2, 0);
        assert_eq!(m.spmm(&empty).shape(), (3, 0));
    }

    /// The mapped subset kernel must agree with `spmm_rows_subset` under an
    /// identity column map, and skip unmapped columns like
    /// `spmm_cols_compact` does.
    #[test]
    fn subset_mapped_matches_subset_and_skips_unmapped() {
        let n = 40usize;
        let mut indptr = vec![0usize];
        let mut indices = Vec::new();
        let mut values = Vec::new();
        for r in 0..n {
            for c in (r % 3..n).step_by(5) {
                indices.push(c as u32);
                values.push(((r * 2 + c) % 9) as f32 * 0.5 - 2.0);
            }
            indptr.push(indices.len());
        }
        let m = CsrMatrix::new(n, n, indptr, indices, values);
        let mut x = Matrix::zeros(n, 6);
        for r in 0..n {
            for c in 0..6 {
                x.set(r, c, ((r * 7 + c) % 13) as f32 * 0.25 - 1.5);
            }
        }
        let rows: Vec<u32> = (0..n as u32).filter(|r| r % 4 == 1).collect();
        let identity: Vec<u32> = (0..n as u32).collect();
        let mut got = Matrix::zeros(rows.len(), 6);
        m.spmm_cols_compact(&x, &identity, &rows, &mut got);
        let mut want = Matrix::zeros(rows.len(), 6);
        m.spmm_rows_subset(&x, &rows, &mut want);
        assert_eq!(got, want);

        // Skipping a column must equal multiplying against X with that
        // logical row zeroed (exact: the skipped term is exactly zero).
        let dropped = 7usize;
        let mut map = identity.clone();
        map[dropped] = COL_SKIP;
        let mut skipped = Matrix::zeros(rows.len(), 6);
        m.spmm_cols_compact(&x, &map, &rows, &mut skipped);
        let mut x_zeroed = x.clone();
        x_zeroed.row_mut(dropped).fill(0.0);
        let mut reference = Matrix::zeros(rows.len(), 6);
        m.spmm_rows_subset(&x_zeroed, &rows, &mut reference);
        assert_eq!(skipped, reference);
    }

    /// Banded matrix large enough to cross both pooled-dispatch thresholds;
    /// pooled SpMV must match the serial row kernel exactly.
    #[test]
    fn large_spmv_pooled_path_matches_serial() {
        let n: usize = 30_000;
        let mut indptr = vec![0usize];
        let mut indices = Vec::new();
        let mut values = Vec::new();
        for r in 0..n {
            for c in r.saturating_sub(1)..(r + 2).min(n) {
                indices.push(c as u32);
                values.push(((r + 2 * c) % 17) as f32 * 0.1 - 0.5);
            }
            indptr.push(indices.len());
        }
        let m = CsrMatrix::new(n, n, indptr, indices, values);
        assert!(m.nnz() >= super::SPMV_PARALLEL_THRESHOLD);
        let x: Vec<f32> = (0..n).map(|i| ((i % 23) as f32) * 0.25 - 2.0).collect();
        let mut got = vec![f32::NAN; n];
        m.spmv_into(&x, &mut got);
        let mut want = vec![0.0f32; n];
        m.spmv_rows(&x, &mut want, 0);
        assert_eq!(got, want);
    }
}
