//! Reduced-precision post-training quantization for the no-grad inference
//! path.
//!
//! Weights are quantized **per column** to symmetric 6-bit
//! (`scale_j = max|B[:,j]| / 63`, values rounded half-away-from-zero and
//! clamped to ±63, stored as `i8`) and stored column-major so each output
//! dot streams one contiguous `i8` column. Calibration also records each
//! column's quantized sum, which the affine activation correction below
//! needs. The ±63 range is what licenses the AVX2 kernel's 16-bit
//! dual-pair accumulation: two `maddubs` pair sums (each ≤ `127·63·2 =
//! 16002`) add exactly in `i16` (≤ 32004 < `i16::MAX`), so one `madd`
//! widening feeds the `i32` accumulator per 64 multiply-adds instead of
//! per 32.
//!
//! Activations are quantized **per row** on the fly to *affine 7-bit*:
//! `u = clamp(round_ne((v - min) · 127/(max - min)), 0, 127)`, so
//! `v ≈ min + u · scale` with `scale = (max - min)/127`. The
//! unsigned-by-construction left operand is what makes the kernel fast:
//! `maddubs` multiplies `u8 × i8` directly with no abs/sign fixups in the
//! inner loop, and saturation can never fire. The dot dequantizes as
//! `a·b ≈ scale_col · (min · colsum + scale · Σ u·b_q)`, with the exact
//! integer `Σ u·b_q` accumulated in `i32`. A constant row (`max == min`)
//! degenerates gracefully: `inv = scale = 0` quantizes everything to
//! `u = 0` and the `min · colsum` term carries the entire rank-one product.
//! For the post-ReLU activations that dominate deep SkipNode inference
//! (`min = 0`), the 7-bit affine grid covers the occupied range as finely
//! as symmetric int8 would — symmetric storage wastes its negative half.
//!
//! The AVX2 and scalar paths are **bit-identical**: row min/max are
//! order-insensitive exact reductions, quantization rounds to nearest even
//! on both paths (`cvtps2dq`'s mode) with the offset applied by an IEEE
//! fused multiply-add, the integer dots are exact, and the f32 epilogue is
//! the same scalar expression. The whole kernel is therefore bitwise
//! reproducible across ISAs and thread counts. Quantization error against
//! the f32 reference is bounded by the per-row/per-column scales; the
//! accuracy gate lives in the integration tests (`tests/precision_gates.rs`),
//! not here.
//!
//! Inputs are assumed finite (trained checkpoints).

use crate::kstats;
use crate::matrix::Matrix;
use crate::pool;
use crate::simd::{self, Isa};

/// Below this many multiply-adds, pool dispatch overhead dominates
/// (mirrors the dense GEMM threshold).
const PARALLEL_THRESHOLD: usize = 64 * 64 * 64;

/// A weight matrix quantized to symmetric 6-bit (±63, stored as `i8`)
/// with per-column scales, stored column-major for contiguous dot
/// products. The ±63 bound is a kernel precondition — see the module
/// docs.
#[derive(Debug, Clone)]
pub struct QuantizedMatrix {
    /// Rows of the source matrix (the contraction length `k`).
    k: usize,
    /// Columns of the source matrix.
    n: usize,
    /// Column-major quantized values: column `j` at `[j*k, (j+1)*k)`.
    data: Vec<i8>,
    /// Per-column dequantization scales (`max|col| / 63`).
    scales: Vec<f32>,
    /// Per-column sums of the quantized values (the affine activation
    /// correction term).
    colsums: Vec<i32>,
}

impl QuantizedMatrix {
    /// Quantize `b` column-wise. This is the post-training calibration
    /// step: call it on checkpointed weights, then reuse for every
    /// inference pass.
    pub fn from_cols(b: &Matrix) -> Self {
        let (k, n) = b.shape();
        kstats::record(kstats::Kernel::QuantI8, k * n);
        let mut scales = vec![0.0f32; n];
        for r in 0..k {
            for (s, &v) in scales.iter_mut().zip(b.row(r)) {
                *s = s.max(v.abs());
            }
        }
        let inv: Vec<f32> = scales
            .iter()
            .map(|&amax| if amax > 0.0 { 63.0 / amax } else { 0.0 })
            .collect();
        for s in &mut scales {
            *s /= 63.0;
        }
        let mut data = vec![0i8; k * n];
        let mut colsums = vec![0i32; n];
        for r in 0..k {
            for (j, &v) in b.row(r).iter().enumerate() {
                let q = (v * inv[j]).round().clamp(-63.0, 63.0) as i8;
                data[j * k + r] = q;
                colsums[j] += q as i32;
            }
        }
        QuantizedMatrix {
            k,
            n,
            data,
            scales,
            colsums,
        }
    }

    /// Contraction length (rows of the source matrix).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Output width (columns of the source matrix).
    pub fn n(&self) -> usize {
        self.n
    }

    /// Per-column dequantization scales.
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }
}

/// `out = a · dequant(qb)` with per-row affine activation quantization and
/// i32 accumulation. `out` must be pre-shaped `a.rows x qb.n`; prior
/// contents are ignored.
pub fn qgemm(a: &Matrix, qb: &QuantizedMatrix, out: &mut Matrix) {
    let (m, k) = a.shape();
    assert_eq!(k, qb.k, "qgemm contraction mismatch");
    debug_assert_eq!(out.shape(), (m, qb.n));
    if qb.n == 0 {
        return;
    }
    kstats::record(kstats::Kernel::GemmI8, m);
    let isa = simd::active();
    if m * k * qb.n < PARALLEL_THRESHOLD || m == 1 {
        qgemm_rows(isa, a, qb, out.as_mut_slice(), 0, m);
        return;
    }
    let rows = m.div_ceil(pool::chunk_count(m));
    pool::par_chunks_mut(out.as_mut_slice(), rows * qb.n, |idx, block| {
        let begin = idx * rows;
        qgemm_rows(isa, a, qb, block, begin, (begin + rows).min(m));
    });
}

/// One activation row's affine quantization parameters:
/// `v ≈ min + u · scale` with `u = clamp(round_ne(fma(v, inv, nmi)), 0, 127)`.
#[derive(Clone, Copy)]
struct RowQuant {
    min: f32,
    scale: f32,
    inv: f32,
    /// `-min · inv`, the FMA addend of the quantization map.
    nmi: f32,
}

impl RowQuant {
    fn from_bounds(lo: f32, hi: f32) -> Self {
        let range = hi - lo;
        let (scale, inv) = if range > 0.0 {
            (range / 127.0, 127.0 / range)
        } else {
            // Constant row: u = 0 everywhere; `min · colsum` carries the
            // whole rank-one product (exactly zero output for a zero row).
            (0.0, 0.0)
        };
        RowQuant {
            min: lo,
            scale,
            inv,
            nmi: -lo * inv,
        }
    }
}

/// The dequantized dot epilogue, kept as one scalar expression so every
/// path computes bitwise-identical outputs.
#[inline]
fn dequant(rq: RowQuant, scale_col: f32, colsum: i32, acc: i32) -> f32 {
    scale_col * (rq.min * colsum as f32 + rq.scale * acc as f32)
}

/// One output row block. The AVX2 path quantizes four activation rows at
/// a time and streams each weight column once per row *block* — four
/// independent accumulator chains share every column load, which cuts the
/// L2 column traffic 4x, and the unsigned affine encoding needs no
/// abs/sign fixups (three vector ops per 32 multiply-adds). Bitwise
/// identical to the scalar reference for every ISA and row split.
fn qgemm_rows(
    isa: Isa,
    a: &Matrix,
    qb: &QuantizedMatrix,
    out: &mut [f32],
    row_begin: usize,
    row_end: usize,
) {
    #[cfg(target_arch = "x86_64")]
    if isa == Isa::Avx2 {
        // SAFETY: dispatch only selects Avx2 after detection.
        unsafe { qgemm_rows_avx2(a, qb, out, row_begin, row_end) };
        return;
    }
    let k = qb.k;
    let n = qb.n;
    let mut aq = vec![0u8; k];
    for (local, r) in (row_begin..row_end).enumerate() {
        let a_row = a.row(r);
        let out_row = &mut out[local * n..(local + 1) * n];
        let rq = row_quant(isa, a_row);
        quantize_row(isa, a_row, rq, &mut aq);
        for (j, o) in out_row.iter_mut().enumerate() {
            let col = &qb.data[j * k..(j + 1) * k];
            let acc = udot(isa, &aq, col);
            *o = dequant(rq, qb.scales[j], qb.colsums[j], acc);
        }
    }
}

/// Row min/max → quantization parameters. Vector and scalar paths are
/// bitwise identical: min/max over finite floats are associative and
/// commutative.
fn row_quant(isa: Isa, row: &[f32]) -> RowQuant {
    #[cfg(target_arch = "x86_64")]
    if isa == Isa::Avx2 {
        // SAFETY: dispatch only selects Avx2 after detection.
        let (lo, hi) = unsafe { min_max_avx2(row) };
        return RowQuant::from_bounds(lo, hi);
    }
    let _ = isa;
    let mut lo = f32::INFINITY;
    let mut hi = f32::NEG_INFINITY;
    for &v in row {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    RowQuant::from_bounds(lo, hi)
}

/// Affine row quantization `u = clamp(round_ne(fma(v, inv, nmi)), 0, 127)`.
/// Both paths round to nearest even (`cvtps2dq`'s mode) and apply the
/// offset with an IEEE fused multiply-add, so they agree bitwise.
fn quantize_row(isa: Isa, row: &[f32], rq: RowQuant, out: &mut [u8]) {
    #[cfg(target_arch = "x86_64")]
    if isa == Isa::Avx2 {
        // SAFETY: dispatch only selects Avx2 after detection.
        unsafe { quantize_row_avx2(row, rq, out) };
        return;
    }
    let _ = isa;
    for (q, &v) in out.iter_mut().zip(row) {
        *q = v
            .mul_add(rq.inv, rq.nmi)
            .round_ties_even()
            .clamp(0.0, 127.0) as u8;
    }
}

/// Exact i32 dot of a `u8` activation row against an `i8` weight column.
/// The AVX2 path is bit-identical to the scalar loop: integer arithmetic,
/// and `u ≤ 127` keeps every `maddubs` pair sum at most 32258, below
/// saturation.
fn udot(isa: Isa, a: &[u8], b: &[i8]) -> i32 {
    #[cfg(target_arch = "x86_64")]
    if isa == Isa::Avx2 {
        // SAFETY: dispatch only selects Avx2 after `is_x86_feature_detected!`.
        return unsafe { udot_avx2(a, b) };
    }
    let _ = isa;
    udot_scalar(a, b)
}

/// Scalar reference integer dot.
pub(crate) fn udot_scalar(a: &[u8], b: &[i8]) -> i32 {
    a.iter()
        .zip(b)
        .map(|(&x, &y)| x as i32 * y as i32)
        .sum::<i32>()
}

/// Rows per register block in the AVX2 kernel: 8 accumulator chains
/// plus the shared column vector fit the 16 ymm registers, and every
/// column load is amortized over 8 rows.
#[cfg(target_arch = "x86_64")]
const ROW_BLOCK: usize = 8;

/// Pieces each activation row's min/max and quantize passes are split
/// into when they run pipelined inside the column loop (see below).
#[cfg(target_arch = "x86_64")]
const PREP_CHUNKS: usize = 4;

/// Software-pipelined quantization of the *next* row panel. The column
/// loop of the current panel is ALU-bound; quantizing the next panel is
/// RAM-bound. Run back to back they serialize, so the next panel's
/// min/max and quantize work is chopped into chunks and a few chunks are
/// advanced per column iteration — fine-grained enough that the
/// out-of-order core overlaps the memory stalls with dot arithmetic.
/// Chunking is bitwise-neutral: min/max are associative and commutative
/// over finite floats, and quantization is elementwise.
#[cfg(target_arch = "x86_64")]
struct PanelPrep {
    /// First source row of the panel being prepared.
    row: usize,
    /// Rows in the panel (0 when the current panel is the last).
    rows: usize,
    /// Pipeline progress in chunk items. Items are row-interleaved — each
    /// row's `PREP_CHUNKS` min/max chunks immediately followed by its
    /// quantize chunks — so the quantize re-read hits the row while it is
    /// still L1-resident and the RAM demand (min/max only) spreads evenly
    /// over the whole column loop instead of front-loading.
    done: usize,
    /// Running per-row (lo, hi) bounds while the min/max items run.
    bounds: [(f32, f32); ROW_BLOCK],
    rqs: [RowQuant; ROW_BLOCK],
    /// Prefetch cursor, bytes into the (contiguous, row-major) panel.
    pf: usize,
    /// Bytes consumed by completed min/max chunks — the prefetch cursor
    /// chases this plus a fixed lookahead.
    mm_bytes: usize,
}

/// How far the panel prefetch cursor runs ahead of the min/max reads.
#[cfg(target_arch = "x86_64")]
const PF_LOOKAHEAD: usize = 12288;

/// Cache lines prefetched per pipeline item, at most. Issuing a whole
/// chunk's worth in one burst overflows the line-fill buffers and the
/// excess prefetches are dropped; a capped steady rate is what actually
/// arrives early.
#[cfg(target_arch = "x86_64")]
const PF_MAX_LINES: usize = 16;

#[cfg(target_arch = "x86_64")]
impl PanelPrep {
    fn new(row: usize, rows: usize) -> Self {
        PanelPrep {
            row,
            rows,
            done: 0,
            bounds: [(f32::INFINITY, f32::NEG_INFINITY); ROW_BLOCK],
            rqs: [RowQuant::from_bounds(0.0, 0.0); ROW_BLOCK],
            pf: 0,
            mm_bytes: 0,
        }
    }

    fn total(&self) -> usize {
        self.rows * PREP_CHUNKS * 2
    }

    /// Run pipeline items until `target` of them have completed.
    #[target_feature(enable = "avx2")]
    unsafe fn advance(&mut self, target: usize, a: &Matrix, k: usize, aq: &mut [u8]) {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        let items_per_row = 2 * PREP_CHUNKS;
        let span = |c: usize| (c * k / PREP_CHUNKS, (c + 1) * k / PREP_CHUNKS);
        let panel_bytes = self.rows * k * 4;
        let base = if self.rows > 0 {
            a.row(self.row).as_ptr() as *const i8
        } else {
            std::ptr::null()
        };
        while self.done < target.min(self.total()) {
            let t = self.done / items_per_row;
            let w = self.done % items_per_row;
            let c = w % PREP_CHUNKS;
            let (lo, hi) = span(c);
            if self.pf < panel_bytes {
                let tgt = (self.mm_bytes + PF_LOOKAHEAD).min(panel_bytes);
                let mut lines = 0;
                while self.pf < tgt && lines < PF_MAX_LINES {
                    _mm_prefetch::<_MM_HINT_T0>(base.add(self.pf));
                    self.pf += 64;
                    lines += 1;
                }
            }
            let chunk = &a.row(self.row + t)[lo..hi];
            if w < PREP_CHUNKS {
                let (clo, chi) = min_max_avx2(chunk);
                let b = &mut self.bounds[t];
                b.0 = b.0.min(clo);
                b.1 = b.1.max(chi);
                self.mm_bytes += (hi - lo) * 4;
                if c + 1 == PREP_CHUNKS {
                    self.rqs[t] = RowQuant::from_bounds(b.0, b.1);
                }
            } else {
                quantize_row_avx2(chunk, self.rqs[t], &mut aq[t * k + lo..t * k + hi]);
            }
            self.done += 1;
        }
    }
}

/// Contraction lengths below this skip the software-pipelined prep: the
/// whole row range's quantized activations fit cache comfortably, and at
/// small `k` the per-column pipeline bookkeeping costs more than the
/// memory stalls it exists to hide.
#[cfg(target_arch = "x86_64")]
const PIPELINE_MIN_K: usize = 512;

/// Small-contraction driver: quantize every activation row upfront into
/// one buffer (padded to a whole panel so the dot kernel never sees a
/// short slice), then run the column loop back-to-back. Same quantization
/// and dequant expressions as the pipelined path, so still bit-identical
/// to the scalar reference.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn qgemm_rows_avx2_smallk(
    a: &Matrix,
    qb: &QuantizedMatrix,
    out: &mut [f32],
    row_begin: usize,
    row_end: usize,
) {
    let k = qb.k;
    let n = qb.n;
    let rows_total = row_end - row_begin;
    let padded = rows_total.next_multiple_of(ROW_BLOCK);
    let mut aq = vec![0u8; padded * k];
    let mut rqs = vec![RowQuant::from_bounds(0.0, 0.0); rows_total];
    for (local, r) in (row_begin..row_end).enumerate() {
        let row = a.row(r);
        let (lo, hi) = min_max_avx2(row);
        let rq = RowQuant::from_bounds(lo, hi);
        rqs[local] = rq;
        quantize_row_avx2(row, rq, &mut aq[local * k..(local + 1) * k]);
    }
    let mut stage = vec![0i32; ROW_BLOCK * n];
    let colsf: Vec<f32> = qb.colsums.iter().map(|&c| c as f32).collect();
    let mut local = 0usize;
    while local < rows_total {
        let rows = (rows_total - local).min(ROW_BLOCK);
        let panel = &aq[local * k..(local + ROW_BLOCK) * k];
        for j in 0..n {
            let col = &qb.data[j * k..(j + 1) * k];
            let accs = dot_block_avx2(panel, k, col);
            for (t, &acc) in accs.iter().enumerate() {
                *stage.get_unchecked_mut(t * n + j) = acc;
            }
        }
        for t in 0..rows {
            let o = (local + t) * n;
            dequant_row_avx2(
                rqs[local + t],
                &stage[t * n..(t + 1) * n],
                &qb.scales,
                &colsf,
                &qb.colsums,
                &mut out[o..o + n],
            );
        }
        local += ROW_BLOCK;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn qgemm_rows_avx2(
    a: &Matrix,
    qb: &QuantizedMatrix,
    out: &mut [f32],
    row_begin: usize,
    row_end: usize,
) {
    let k = qb.k;
    let n = qb.n;
    if k < PIPELINE_MIN_K {
        return qgemm_rows_avx2_smallk(a, qb, out, row_begin, row_end);
    }
    // Double-buffered quantized panels: dots read `cur` while the
    // pipelined prep writes `next`. A short final panel leaves stale rows
    // in place and simply discards their accumulators (cheaper than a
    // variable-width inner loop).
    let mut aq = [vec![0u8; ROW_BLOCK * k], vec![0u8; ROW_BLOCK * k]];
    // Integer dots land here column-by-column; the dequant epilogue then
    // sweeps each row contiguously with vector loads instead of scattered
    // scalar stores.
    let mut stage = vec![0i32; ROW_BLOCK * n];
    let colsf: Vec<f32> = qb.colsums.iter().map(|&c| c as f32).collect();
    let mut cur = 0usize;
    let mut r = row_begin;
    // Prologue: quantize the first panel synchronously.
    let mut prep = PanelPrep::new(r, (row_end - r).min(ROW_BLOCK));
    prep.advance(usize::MAX, a, k, &mut aq[cur]);
    let mut rqs = prep.rqs;
    while r < row_end {
        let rows = (row_end - r).min(ROW_BLOCK);
        let next_r = r + rows;
        let mut prep = PanelPrep::new(next_r, (row_end - next_r).min(ROW_BLOCK));
        let items = prep.total();
        let base = (r - row_begin) * n;
        // Columns go two at a time: each pair pass reads the panel once
        // for both columns, halving the L2 re-read traffic, and the
        // four-row sub-panels it walks stay L1-resident at first-layer
        // widths. An odd final column falls back to the single-column
        // kernel.
        let mut j = 0;
        while j < n {
            let pair = j + 1 < n;
            let cols_done = j + if pair { 2 } else { 1 };
            prep.advance(items * cols_done / n, a, k, &mut aq[1 - cur]);
            if pair {
                let c0 = &qb.data[j * k..(j + 1) * k];
                let c1 = &qb.data[(j + 1) * k..(j + 2) * k];
                for half in 0..2 {
                    let accs = dot_pair_avx2(&aq[cur], k, half * 4, c0, c1);
                    for t in 0..4 {
                        let row = half * 4 + t;
                        *stage.get_unchecked_mut(row * n + j) = accs[t * 2];
                        *stage.get_unchecked_mut(row * n + j + 1) = accs[t * 2 + 1];
                    }
                }
            } else {
                let col = &qb.data[j * k..(j + 1) * k];
                let accs = dot_block_avx2(&aq[cur], k, col);
                for (t, &acc) in accs.iter().enumerate() {
                    *stage.get_unchecked_mut(t * n + j) = acc;
                }
            }
            j = cols_done;
        }
        prep.advance(usize::MAX, a, k, &mut aq[1 - cur]);
        for t in 0..rows {
            let o = base + t * n;
            dequant_row_avx2(
                rqs[t],
                &stage[t * n..(t + 1) * n],
                &qb.scales,
                &colsf,
                &qb.colsums,
                &mut out[o..o + n],
            );
        }
        rqs = prep.rqs;
        cur = 1 - cur;
        r = next_r;
    }
}

/// One output row of the dequant epilogue,
/// `out[j] = scales[j] · (min · colsum[j] + scale · acc[j])`, vectorized
/// over contiguous columns. Operation order matches the scalar
/// [`dequant`] expression term for term (mul, mul, add, mul — no
/// contraction), and `cvtdq2ps`/`as f32` both round to nearest even, so
/// the paths agree bitwise.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dequant_row_avx2(
    rq: RowQuant,
    acc: &[i32],
    scales: &[f32],
    colsf: &[f32],
    colsums: &[i32],
    out: &mut [f32],
) {
    use std::arch::x86_64::*;
    let n = out.len();
    let vmin = _mm256_set1_ps(rq.min);
    let vscale = _mm256_set1_ps(rq.scale);
    let mut j = 0;
    while j + 8 <= n {
        let af = _mm256_cvtepi32_ps(_mm256_loadu_si256(acc.as_ptr().add(j) as *const __m256i));
        let t1 = _mm256_mul_ps(vmin, _mm256_loadu_ps(colsf.as_ptr().add(j)));
        let t2 = _mm256_mul_ps(vscale, af);
        let r = _mm256_mul_ps(
            _mm256_loadu_ps(scales.as_ptr().add(j)),
            _mm256_add_ps(t1, t2),
        );
        _mm256_storeu_ps(out.as_mut_ptr().add(j), r);
        j += 8;
    }
    while j < n {
        *out.get_unchecked_mut(j) = dequant(
            rq,
            *scales.get_unchecked(j),
            *colsums.get_unchecked(j),
            *acc.get_unchecked(j),
        );
        j += 1;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn min_max_avx2(row: &[f32]) -> (f32, f32) {
    use std::arch::x86_64::*;
    let mut vlo = _mm256_set1_ps(f32::INFINITY);
    let mut vhi = _mm256_set1_ps(f32::NEG_INFINITY);
    let mut i = 0;
    while i + 8 <= row.len() {
        let v = _mm256_loadu_ps(row.as_ptr().add(i));
        vlo = _mm256_min_ps(vlo, v);
        vhi = _mm256_max_ps(vhi, v);
        i += 8;
    }
    let mut lanes = [0.0f32; 8];
    _mm256_storeu_ps(lanes.as_mut_ptr(), vlo);
    let mut lo = lanes.iter().fold(f32::INFINITY, |m, &v| m.min(v));
    _mm256_storeu_ps(lanes.as_mut_ptr(), vhi);
    let mut hi = lanes.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
    while i < row.len() {
        let v = *row.get_unchecked(i);
        lo = lo.min(v);
        hi = hi.max(v);
        i += 1;
    }
    (lo, hi)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn quantize_row_avx2(row: &[f32], rq: RowQuant, out: &mut [u8]) {
    use std::arch::x86_64::*;
    let n = row.len().min(out.len());
    let vinv = _mm256_set1_ps(rq.inv);
    let vnmi = _mm256_set1_ps(rq.nmi);
    let lo = _mm256_setzero_si256();
    let hi = _mm256_set1_epi32(127);
    // After the two saturating packs the bytes sit in dword groups ordered
    // [q0 q2 q4 q6 | q1 q3 q5 q7]; this permutation restores them.
    let fix = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
    let mut i = 0;
    while i + 32 <= n {
        let q = |off: usize| {
            let v = _mm256_loadu_ps(row.as_ptr().add(i + off));
            // cvtps2dq rounds to nearest even — the shared rounding mode.
            let d = _mm256_cvtps_epi32(_mm256_fmadd_ps(v, vinv, vnmi));
            _mm256_min_epi32(_mm256_max_epi32(d, lo), hi)
        };
        let p01 = _mm256_packs_epi32(q(0), q(8));
        let p23 = _mm256_packs_epi32(q(16), q(24));
        let packed = _mm256_permutevar8x32_epi32(_mm256_packs_epi16(p01, p23), fix);
        _mm256_storeu_si256(out.as_mut_ptr().add(i) as *mut __m256i, packed);
        i += 32;
    }
    while i < n {
        let v = *row.get_unchecked(i);
        *out.get_unchecked_mut(i) = v
            .mul_add(rq.inv, rq.nmi)
            .round_ties_even()
            .clamp(0.0, 127.0) as u8;
        i += 1;
    }
}

/// ROW_BLOCK integer dots against one weight column: the column vectors
/// are loaded once per iteration and feed one independent accumulator
/// chain per row. The main loop covers 64 elements: two `maddubs` pair
/// sums (each ≤ 16002 thanks to the ±63 weight range) add exactly in
/// `i16` before one widening `madd` — three port-bound ops per 64
/// multiply-adds. Exact i32 whatever the grouping, so the result is
/// bit-identical to [`udot_scalar`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dot_block_avx2(aq: &[u8], k: usize, col: &[i8]) -> [i32; ROW_BLOCK] {
    use std::arch::x86_64::*;
    debug_assert!(aq.len() >= ROW_BLOCK * k && col.len() >= k);
    let ones = _mm256_set1_epi16(1);
    let mut acc = [_mm256_setzero_si256(); ROW_BLOCK];
    let mut i = 0;
    while i + 64 <= k {
        let bv0 = _mm256_loadu_si256(col.as_ptr().add(i) as *const __m256i);
        let bv1 = _mm256_loadu_si256(col.as_ptr().add(i + 32) as *const __m256i);
        for (t, acc) in acc.iter_mut().enumerate() {
            let av0 = _mm256_loadu_si256(aq.as_ptr().add(t * k + i) as *const __m256i);
            let av1 = _mm256_loadu_si256(aq.as_ptr().add(t * k + i + 32) as *const __m256i);
            let pairs = _mm256_add_epi16(
                _mm256_maddubs_epi16(av0, bv0),
                _mm256_maddubs_epi16(av1, bv1),
            );
            *acc = _mm256_add_epi32(*acc, _mm256_madd_epi16(pairs, ones));
        }
        i += 64;
    }
    while i + 32 <= k {
        let bv = _mm256_loadu_si256(col.as_ptr().add(i) as *const __m256i);
        for (t, acc) in acc.iter_mut().enumerate() {
            let av = _mm256_loadu_si256(aq.as_ptr().add(t * k + i) as *const __m256i);
            let pairs = _mm256_maddubs_epi16(av, bv);
            *acc = _mm256_add_epi32(*acc, _mm256_madd_epi16(pairs, ones));
        }
        i += 32;
    }
    let mut totals = reduce8_avx2(&acc);
    for (t, total) in totals.iter_mut().enumerate() {
        let mut j = i;
        while j < k {
            *total += *aq.get_unchecked(t * k + j) as i32 * *col.get_unchecked(j) as i32;
            j += 1;
        }
    }
    totals
}

/// Four panel rows against two weight columns in one pass over the rows.
/// Compared to [`dot_block_avx2`] this halves how often the panel is
/// re-read (each activation load feeds both columns) and walks a
/// four-row sub-panel small enough to stay L1-resident even at k ≈ 1433.
/// The per-(row, column) accumulation order — 64-element dual-pair main
/// loop, 32-element loop, scalar tail — matches the single-column kernel
/// exactly, so results remain bit-identical to [`udot_scalar`].
///
/// Accumulators are laid out `[row][column]` (`acc[t * 2 + c]`) so
/// [`reduce8_avx2`] finishes all eight dots at once.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dot_pair_avx2(
    aq: &[u8],
    k: usize,
    row0: usize,
    c0: &[i8],
    c1: &[i8],
) -> [i32; ROW_BLOCK] {
    use std::arch::x86_64::*;
    debug_assert!(aq.len() >= (row0 + 4) * k && c0.len() >= k && c1.len() >= k);
    let ones = _mm256_set1_epi16(1);
    let mut acc = [_mm256_setzero_si256(); ROW_BLOCK];
    let mut i = 0;
    while i + 64 <= k {
        let b00 = _mm256_loadu_si256(c0.as_ptr().add(i) as *const __m256i);
        let b01 = _mm256_loadu_si256(c0.as_ptr().add(i + 32) as *const __m256i);
        let b10 = _mm256_loadu_si256(c1.as_ptr().add(i) as *const __m256i);
        let b11 = _mm256_loadu_si256(c1.as_ptr().add(i + 32) as *const __m256i);
        for t in 0..4 {
            let row = (row0 + t) * k + i;
            let av0 = _mm256_loadu_si256(aq.as_ptr().add(row) as *const __m256i);
            let av1 = _mm256_loadu_si256(aq.as_ptr().add(row + 32) as *const __m256i);
            let p0 = _mm256_add_epi16(
                _mm256_maddubs_epi16(av0, b00),
                _mm256_maddubs_epi16(av1, b01),
            );
            acc[t * 2] = _mm256_add_epi32(acc[t * 2], _mm256_madd_epi16(p0, ones));
            let p1 = _mm256_add_epi16(
                _mm256_maddubs_epi16(av0, b10),
                _mm256_maddubs_epi16(av1, b11),
            );
            acc[t * 2 + 1] = _mm256_add_epi32(acc[t * 2 + 1], _mm256_madd_epi16(p1, ones));
        }
        i += 64;
    }
    while i + 32 <= k {
        let b0 = _mm256_loadu_si256(c0.as_ptr().add(i) as *const __m256i);
        let b1 = _mm256_loadu_si256(c1.as_ptr().add(i) as *const __m256i);
        for t in 0..4 {
            let av = _mm256_loadu_si256(aq.as_ptr().add((row0 + t) * k + i) as *const __m256i);
            let p0 = _mm256_maddubs_epi16(av, b0);
            acc[t * 2] = _mm256_add_epi32(acc[t * 2], _mm256_madd_epi16(p0, ones));
            let p1 = _mm256_maddubs_epi16(av, b1);
            acc[t * 2 + 1] = _mm256_add_epi32(acc[t * 2 + 1], _mm256_madd_epi16(p1, ones));
        }
        i += 32;
    }
    let mut totals = reduce8_avx2(&acc);
    for t in 0..4 {
        for (c, col) in [c0, c1].iter().enumerate() {
            let total = &mut totals[t * 2 + c];
            let mut j = i;
            while j < k {
                *total +=
                    *aq.get_unchecked((row0 + t) * k + j) as i32 * *col.get_unchecked(j) as i32;
                j += 1;
            }
        }
    }
    totals
}

/// Lane sums of eight i32 accumulators via pairwise `hadd` transposes —
/// a dozen vector ops instead of eight scalar eight-way sums. Integer
/// addition is exact in any association, so the result is bit-identical
/// to summing each register's lanes left to right.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn reduce8_avx2(acc: &[std::arch::x86_64::__m256i; ROW_BLOCK]) -> [i32; ROW_BLOCK] {
    use std::arch::x86_64::*;
    let mut out = [0i32; ROW_BLOCK];
    for half in 0..2 {
        // hadd twice folds four registers to one vector whose low 128 bits
        // hold each register's low-half sum and the high 128 the high-half
        // sums; one cross-lane add finishes all four rows at once.
        let t0 = _mm256_hadd_epi32(acc[half * 4], acc[half * 4 + 1]);
        let t1 = _mm256_hadd_epi32(acc[half * 4 + 2], acc[half * 4 + 3]);
        let t2 = _mm256_hadd_epi32(t0, t1);
        let s = _mm_add_epi32(_mm256_castsi256_si128(t2), _mm256_extracti128_si256(t2, 1));
        _mm_storeu_si128(out.as_mut_ptr().add(half * 4) as *mut __m128i, s);
    }
    out
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn udot_avx2(a: &[u8], b: &[i8]) -> i32 {
    use std::arch::x86_64::*;
    let n = a.len().min(b.len());
    let ones = _mm256_set1_epi16(1);
    let mut acc = _mm256_setzero_si256();
    let mut i = 0;
    while i + 32 <= n {
        let av = _mm256_loadu_si256(a.as_ptr().add(i) as *const __m256i);
        let bv = _mm256_loadu_si256(b.as_ptr().add(i) as *const __m256i);
        let pairs = _mm256_maddubs_epi16(av, bv);
        acc = _mm256_add_epi32(acc, _mm256_madd_epi16(pairs, ones));
        i += 32;
    }
    let mut lanes = [0i32; 8];
    _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, acc);
    let mut total: i32 = lanes.iter().sum();
    while i < n {
        total += *a.get_unchecked(i) as i32 * *b.get_unchecked(i) as i32;
        i += 1;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitRng;

    /// Dev probe, not a correctness test: decomposes qgemm cost on the
    /// Cora first-layer shape so kernel work iterates without rebuilding
    /// the bench crate. Run with
    /// `cargo test --release -p skipnode-tensor --lib probe_qgemm -- --ignored --nocapture`.
    #[test]
    #[ignore]
    fn probe_qgemm_throughput() {
        let mut rng = SplitRng::new(3);
        // The layer mix of a Cora depth-4 GCN checkpoint at m=2708.
        let shapes = [
            (2708usize, 1433usize, 64usize),
            (2708, 64, 64),
            (2708, 64, 64),
            (2708, 64, 7),
        ];
        let mut f32_total = 0.0;
        let mut i8_total = 0.0;
        for &(m, k, n) in &shapes {
            let a = rng.uniform_matrix(m, k, -1.0, 1.0);
            let b = rng.uniform_matrix(k, n, -0.3, 0.3);
            let qb = QuantizedMatrix::from_cols(&b);
            let mut out = Matrix::zeros(m, n);
            let time = |label: &str, mut f: Box<dyn FnMut() + '_>| -> f64 {
                for _ in 0..3 {
                    f();
                }
                let t0 = std::time::Instant::now();
                let iters = 20;
                for _ in 0..iters {
                    f();
                }
                let ns = t0.elapsed().as_nanos() as f64 / iters as f64;
                let gmacs = (m * k * n) as f64 / ns;
                println!(
                    "({m},{k},{n}) {label}: {:.3} ms ({gmacs:.1} GMAC/s)",
                    ns / 1e6
                );
                ns
            };
            f32_total += time(
                "f32 matmul",
                Box::new(|| {
                    let r = a.matmul(&b);
                    crate::workspace::give(r);
                }),
            );
            i8_total += time("qgemm     ", Box::new(|| qgemm(&a, &qb, &mut out)));
        }
        println!(
            "checkpoint total: f32 {:.3} ms, int8 {:.3} ms, speedup {:.2}x",
            f32_total / 1e6,
            i8_total / 1e6,
            f32_total / i8_total
        );
    }

    #[test]
    fn quantized_product_tracks_f32_reference() {
        let mut rng = SplitRng::new(11);
        let a = rng.uniform_matrix(17, 33, -2.0, 2.0);
        let b = rng.uniform_matrix(33, 9, -1.0, 1.0);
        let qb = QuantizedMatrix::from_cols(&b);
        let mut out = Matrix::full(17, 9, f32::NAN);
        qgemm(&a, &qb, &mut out);
        let reference = a.matmul(&b);
        for (q, f) in out.as_slice().iter().zip(reference.as_slice()) {
            // 7-bit affine activations x 6-bit weights: ~0.8% relative
            // error per factor, summed over k=33 terms of magnitude <= 2.
            assert!((q - f).abs() <= 0.45, "{q} vs {f}");
        }
    }

    #[test]
    fn zero_rows_and_columns_quantize_exactly() {
        let mut b = Matrix::zeros(8, 3);
        b.set(2, 1, 0.5);
        let qb = QuantizedMatrix::from_cols(&b);
        assert_eq!(qb.scales()[0], 0.0);
        assert!(qb.scales()[1] > 0.0);
        let a = Matrix::zeros(4, 8);
        let mut out = Matrix::full(4, 3, f32::NAN);
        qgemm(&a, &qb, &mut out);
        assert!(out.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn constant_rows_are_exact_through_the_affine_correction() {
        // A constant activation row quantizes to u = 0 everywhere; the
        // `min * colsum` term must reproduce the rank-one product to
        // within the weight quantization error alone.
        let mut rng = SplitRng::new(19);
        let b = rng.uniform_matrix(24, 5, -1.0, 1.0);
        let qb = QuantizedMatrix::from_cols(&b);
        let a = Matrix::full(3, 24, -0.75);
        let mut out = Matrix::full(3, 5, f32::NAN);
        qgemm(&a, &qb, &mut out);
        let reference = a.matmul(&b);
        for (q, f) in out.as_slice().iter().zip(reference.as_slice()) {
            assert!((q - f).abs() <= 0.1, "{q} vs {f}");
        }
    }

    #[test]
    fn blocked_path_matches_scalar_bitwise() {
        // Shapes straddle every remainder (n % 4, k % 32, zero rows) and
        // both AVX2 drivers: k < PIPELINE_MIN_K takes the upfront small-k
        // path, k >= 512 the software-pipelined one.
        let mut rng = SplitRng::new(17);
        for (m, k, n) in [
            (3, 33, 9),
            (5, 64, 6),
            (2, 100, 5),
            (4, 31, 4),
            (11, 512, 7),
            (9, 583, 6),
        ] {
            let mut a = rng.uniform_matrix(m, k, -3.0, 3.0);
            for c in 0..k {
                a.set(m - 1, c, 0.0);
            }
            let b = rng.uniform_matrix(k, n, -1.0, 1.0);
            let qb = QuantizedMatrix::from_cols(&b);
            let mut fast = Matrix::full(m, n, f32::NAN);
            qgemm_rows(simd::active(), &a, &qb, fast.as_mut_slice(), 0, m);
            let mut slow = Matrix::full(m, n, f32::NAN);
            qgemm_rows(Isa::Scalar, &a, &qb, slow.as_mut_slice(), 0, m);
            assert_eq!(fast.as_slice(), slow.as_slice(), "({m},{k},{n})");
        }
    }

    #[test]
    fn integer_dot_matches_scalar_reference_on_active_isa() {
        let mut rng = SplitRng::new(13);
        for len in [1usize, 31, 32, 33, 64, 100] {
            let a: Vec<u8> = (0..len)
                .map(|_| (rng.uniform(0.0, 128.0) as i32).clamp(0, 127) as u8)
                .collect();
            let b: Vec<i8> = (0..len)
                .map(|_| (rng.uniform(-127.0, 128.0) as i32).clamp(-127, 127) as i8)
                .collect();
            assert_eq!(udot(simd::active(), &a, &b), udot_scalar(&a, &b));
        }
    }

    #[test]
    fn saturation_cannot_fire_at_extremes() {
        // All-127 x all-(-63) maximizes every pair sum magnitude the
        // calibrated ±63 weight range can produce; 160 elements also
        // exercise the 64-wide dual-pair loop, its 32-wide remainder, and
        // the scalar tail of the blocked kernel.
        let a = vec![127u8; 160];
        let b = vec![-63i8; 160];
        assert_eq!(udot(simd::active(), &a, &b), -127 * 63 * 160);
        #[cfg(target_arch = "x86_64")]
        if simd::active() == Isa::Avx2 {
            let blocked = vec![127u8; ROW_BLOCK * 160];
            let accs = unsafe { dot_block_avx2(&blocked, 160, &b) };
            assert!(accs.iter().all(|&v| v == -127 * 63 * 160));
        }
    }
}
