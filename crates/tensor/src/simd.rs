//! Runtime-dispatched SIMD inner kernels.
//!
//! Every hot loop in the stack funnels through a handful of primitives in
//! this module: the register-tiled GEMM row kernels of the three layouts
//! (`A·B`, `Aᵀ·B`, `A·Bᵀ`), the SpMM row kernel (`spmm_row`) and the
//! axpy it is defined by, the dot products of `A·Bᵀ`'s remainders, the
//! elementwise
//! update kernels, the f64-accumulated square-sum, the fused Adam
//! element step, and the eight-lane xoshiro256++ Bernoulli draw behind
//! long dropout fills (`bernoulli_lanes`, integer-only and so bitwise on
//! every ISA; only AVX2 has a vector kernel for it). Each primitive takes
//! an explicit [`Isa`] so callers hoist the dispatch out of their loops;
//! the active ISA is detected once per process (AVX2+FMA on x86_64, NEON
//! on aarch64) and can be forced off via `SKIPNODE_SIMD=off` or [`force`]
//! for A/B comparisons.
//!
//! # Accumulation-order policy
//!
//! The identity suites pin eager-vs-compiled and fused-vs-unfused results
//! bitwise, so vectorized kernels must not make results depend on schedule,
//! tile size, or row compaction. The rules:
//!
//! - **Order-preserving kernels vectorize across output elements only.**
//!   The `A·B` and `Aᵀ·B` tiles and the SpMM row kernel accumulate each
//!   output element in the exact scalar index order (`p = 0..k`,
//!   `r = 0..m`, neighbors in CSR order); lanes hold *different* output
//!   columns, never
//!   partial sums of the same element. Zero-skip (`fma(0, x, acc) == acc`
//!   for finite `x`) stays exact.
//! - **The SIMD path uses fused multiply-add uniformly** — vector FMA in
//!   the lane loops and `f32::mul_add` in every remainder loop — so a given
//!   element's bits are invariant to where tile/lane boundaries fall. SIMD
//!   results therefore differ from the scalar reference only by FMA's
//!   skipped intermediate rounding, pinned by tolerance-gated tests.
//! - **Bitwise-class kernels avoid FMA entirely.** `add_scaled`, `relu`,
//!   and the Adam step use plain mul/add/max lanes that round exactly like
//!   the scalar reference, so they stay bit-identical to it on every ISA
//!   (NEON's ReLU is not checked on NaN and `-0.0` inputs).
//! - **Reductions that fold lanes** (`dot`, the `A·Bᵀ` kernel, which folds
//!   four of `dot`'s lane sums at once, [`sum_sq_f64`]) combine partial
//!   sums in a fixed order, so they are deterministic per ISA but
//!   tolerance-class versus scalar.
//!
//! The scalar kernels in the `gemm` module and friends are untouched and
//! remain the bitwise reference; `SKIPNODE_SIMD=off` reproduces pre-SIMD
//! results byte-for-byte.

use crate::epilogue::{self, Epilogue};
use crate::matrix::Matrix;
use std::sync::atomic::{AtomicU8, Ordering};

/// Instruction-set family the dispatched kernels run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Isa {
    /// Portable scalar loops; bit-identical to the pre-SIMD kernels.
    Scalar,
    /// 8-lane f32 AVX2 with FMA (x86_64, runtime-detected).
    Avx2,
    /// 4-lane f32 NEON (aarch64 baseline).
    Neon,
}

impl Isa {
    /// Stable lowercase name used in bench metadata.
    pub fn name(self) -> &'static str {
        match self {
            Isa::Scalar => "scalar",
            Isa::Avx2 => "avx2+fma",
            Isa::Neon => "neon",
        }
    }

    /// f32 lanes per vector register on this ISA.
    pub fn lanes(self) -> usize {
        match self {
            Isa::Scalar => 1,
            Isa::Avx2 => 8,
            Isa::Neon => 4,
        }
    }
}

/// 0 = undetected sentinel; otherwise `Isa` discriminant + 1.
static ACTIVE: AtomicU8 = AtomicU8::new(0);

fn code(isa: Isa) -> u8 {
    match isa {
        Isa::Scalar => 1,
        Isa::Avx2 => 2,
        Isa::Neon => 3,
    }
}

/// The ISA the current host supports for `isa` (used to clamp [`force`]).
pub(crate) fn supported(isa: Isa) -> bool {
    match isa {
        Isa::Scalar => true,
        Isa::Avx2 => {
            #[cfg(target_arch = "x86_64")]
            {
                is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
            }
            #[cfg(not(target_arch = "x86_64"))]
            {
                false
            }
        }
        Isa::Neon => cfg!(target_arch = "aarch64"),
    }
}

fn detect() -> Isa {
    if let Ok(v) = std::env::var("SKIPNODE_SIMD") {
        match v.trim().to_ascii_lowercase().as_str() {
            "off" | "scalar" | "0" => return Isa::Scalar,
            "" | "on" | "auto" | "1" => {}
            other => eprintln!("SKIPNODE_SIMD={other:?} not recognized (off|auto); using auto"),
        }
    }
    if supported(Isa::Avx2) {
        Isa::Avx2
    } else if supported(Isa::Neon) {
        Isa::Neon
    } else {
        Isa::Scalar
    }
}

/// The ISA kernels currently dispatch to. Detected on first call (honoring
/// `SKIPNODE_SIMD=off`), then a relaxed atomic load.
pub fn active() -> Isa {
    match ACTIVE.load(Ordering::Relaxed) {
        0 => {
            let isa = detect();
            ACTIVE.store(code(isa), Ordering::Relaxed);
            isa
        }
        1 => Isa::Scalar,
        2 => Isa::Avx2,
        _ => Isa::Neon,
    }
}

/// Force the dispatched ISA for this process (benches comparing scalar vs
/// SIMD on the same binary; tests pinning one path). Requests the host
/// cannot execute are clamped to [`Isa::Scalar`]; returns what was applied.
pub fn force(isa: Isa) -> Isa {
    let applied = if supported(isa) { isa } else { Isa::Scalar };
    ACTIVE.store(code(applied), Ordering::Relaxed);
    applied
}

// ---------------------------------------------------------------------------
// FMA-class primitives (order-preserving per element, tolerance vs scalar)
// ---------------------------------------------------------------------------

/// `y[i] = alpha * x[i] + y[i]`. This is the per-nonzero step of
/// [`spmm_row`] off AVX2 (and the arithmetic its AVX2 kernel reproduces)
/// and of the NEON `Aᵀ·B` stream in `gemm_at_b_rows`: each `y[i]` is one
/// output element, so repeated calls accumulate every element in the
/// caller's (scalar) order. Vector ISAs use FMA lanes
/// (tolerance-class); the [`Isa::Scalar`] path is the plain
/// `y += alpha * x` reference loop, bit-identical to the pre-SIMD kernels.
#[inline]
pub fn axpy(isa: Isa, alpha: f32, x: &[f32], y: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if isa == Isa::Avx2 {
        // SAFETY: Isa::Avx2 only escapes detection/force when avx2+fma are
        // available on this host.
        unsafe { axpy_avx2(alpha, x, y) };
        return;
    }
    #[cfg(target_arch = "aarch64")]
    if isa == Isa::Neon {
        // SAFETY: NEON is baseline on aarch64.
        unsafe { axpy_neon(alpha, x, y) };
        return;
    }
    let _ = isa;
    for (o, &xv) in y.iter_mut().zip(x) {
        *o += alpha * xv;
    }
}

/// `y[idx[i]] = alpha * x[i] + y[idx[i]]`: [`axpy`] of a sparse row
/// (`idx` its column indices, `x` its values) into a dense accumulator.
/// Each element takes the op [`axpy`] applies to it on the same ISA —
/// FMA on vector ISAs, mul-then-add on [`Isa::Scalar`] — so accumulating
/// only a row's stored entries reproduces the dense accumulation bit for
/// bit, up to the skipped `alpha · 0` terms.
///
/// # Panics
/// Panics when an index is out of `y`'s range.
#[inline]
pub fn axpy_scatter(isa: Isa, alpha: f32, idx: &[u32], x: &[f32], y: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if isa == Isa::Avx2 {
        // SAFETY: see `axpy`.
        unsafe { axpy_scatter_avx2(alpha, idx, x, y) };
        return;
    }
    if isa == Isa::Scalar {
        for (&i, &xv) in idx.iter().zip(x) {
            y[i as usize] += alpha * xv;
        }
    } else {
        // NEON: FMA is baseline on aarch64, so `mul_add` is one instruction.
        for (&i, &xv) in idx.iter().zip(x) {
            let o = &mut y[i as usize];
            *o = alpha.mul_add(xv, *o);
        }
    }
}

/// Dot product. Vector ISAs use FMA lanes with a fixed-order horizontal
/// fold (deterministic per ISA, tolerance-class); [`Isa::Scalar`] is the
/// plain `acc += x*y` reference chain.
#[inline]
pub fn dot(isa: Isa, x: &[f32], y: &[f32]) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if isa == Isa::Avx2 {
        // SAFETY: see `axpy`.
        return unsafe { dot_avx2(x, y) };
    }
    #[cfg(target_arch = "aarch64")]
    if isa == Isa::Neon {
        // SAFETY: NEON is baseline on aarch64.
        return unsafe { dot_neon(x, y) };
    }
    let _ = isa;
    let mut acc = 0.0f32;
    for (&xv, &yv) in x.iter().zip(y) {
        acc += xv * yv;
    }
    acc
}

/// Sum of squares with f64 accumulation (the [`crate::l2_norm_sq`] chunk
/// kernel). Scalar ISA reproduces the reference loop bitwise; vector ISAs
/// fold two f64 lanes-groups in a fixed order (tolerance-class).
pub fn sum_sq_f64(isa: Isa, x: &[f32]) -> f64 {
    #[cfg(target_arch = "x86_64")]
    if isa == Isa::Avx2 {
        // SAFETY: see `axpy`.
        return unsafe { sum_sq_f64_avx2(x) };
    }
    let _ = isa;
    x.iter().map(|&v| (v as f64) * (v as f64)).sum()
}

/// SIMD GEMM row kernel: rows `[row_begin, row_end)` of `a·b` into the row
/// block `out`, each element through `ep` (bias, then ReLU) as it is
/// stored. On AVX2 each 4-row block first lists, branch-free, the `p`
/// whose 4-wide window of `A` is not all zero, then runs 4×16 register
/// tiles over that list and applies `ep` to the registers before the
/// store; NEON runs 4×16 tiles with a per-`p` window test and applies `ep`
/// to the row block after it. Either way each element sums `p = 0..k` in
/// order with FMA from `+0`, skipping exactly the all-zero windows, so the
/// serial/pooled split produces identical bytes; versus the scalar
/// reference the only difference is FMA contraction.
///
/// # Panics
/// Panics when the shapes disagree, `out` is shorter than the row block or
/// the bias is shorter than a row.
pub fn gemm_rows(
    isa: Isa,
    a: &Matrix,
    b: &Matrix,
    ep: Epilogue<'_>,
    out: &mut [f32],
    row_begin: usize,
    row_end: usize,
) {
    assert!(
        a.cols() == b.rows()
            && row_begin <= row_end
            && row_end <= a.rows()
            && out.len() >= (row_end - row_begin) * b.cols()
            && ep.bias.is_none_or(|bias| bias.len() >= b.cols()),
        "gemm_rows shapes"
    );
    #[cfg(target_arch = "x86_64")]
    if isa == Isa::Avx2 {
        // SAFETY: see `axpy` for the ISA; the assert above is the kernel's
        // shape contract.
        unsafe { gemm_rows_avx2(a, b, ep, out, row_begin, row_end) };
        return;
    }
    #[cfg(target_arch = "aarch64")]
    if isa == Isa::Neon {
        // SAFETY: NEON is baseline on aarch64.
        unsafe { gemm_rows_neon(a, b, out, row_begin, row_end) };
        ep.apply_rows(&mut out[..(row_end - row_begin) * b.cols()], b.cols());
        return;
    }
    let _ = isa;
    gemm_rows_portable(a, b, out, row_begin, row_end);
    ep.apply_rows(&mut out[..(row_end - row_begin) * b.cols()], b.cols());
}

/// SIMD `Aᵀ·B` row kernel: output rows `[p_begin, p_end)` of `aᵀ·b` into
/// the row block `out`. On AVX2, 4×16 output tiles stay in registers while
/// `r` runs in ascending row blocks, skipping rows whose 4-wide window of
/// `A` is all zero; NEON streams [`axpy`] row updates, skipping zero
/// entries. Either way each element sums `r = 0..m` in order with FMA from
/// `+0`, so the result is invariant to the pooled split and differs from
/// the scalar reference only by FMA contraction.
///
/// # Panics
/// Panics when the shapes disagree or `out` is shorter than the row block.
pub(crate) fn gemm_at_b_rows(
    isa: Isa,
    a: &Matrix,
    b: &Matrix,
    out: &mut [f32],
    p_begin: usize,
    p_end: usize,
) {
    let n = b.cols();
    assert!(
        a.rows() == b.rows()
            && p_begin <= p_end
            && p_end <= a.cols()
            && out.len() >= (p_end - p_begin) * n,
        "gemm_at_b_rows shapes"
    );
    #[cfg(target_arch = "x86_64")]
    if isa == Isa::Avx2 {
        // SAFETY: see `gemm_rows`.
        unsafe { at_b_rows_avx2(a, b, out, p_begin, p_end) };
        return;
    }
    out.fill(0.0);
    for r in 0..a.rows() {
        let b_row = b.row(r);
        for (local_p, &ap) in a.row(r)[p_begin..p_end].iter().enumerate() {
            if ap == 0.0 {
                continue;
            }
            axpy(isa, ap, b_row, &mut out[local_p * n..(local_p + 1) * n]);
        }
    }
}

/// SIMD `A·Bᵀ` row kernel: rows `[row_begin, row_end)` of `a·bᵀ` into the
/// row block `out`. Each element is [`dot`] of its two rows — vector FMA
/// lanes folded in a fixed order, then the scalar tail — so it is
/// deterministic per ISA and tolerance-class versus the scalar reference.
/// AVX2 computes two rows of `A` against four rows of `B` per pass and
/// folds four elements at once, bit for bit as [`dot`] does.
///
/// # Panics
/// Panics when the shapes disagree or `out` is shorter than the row block.
pub(crate) fn gemm_a_bt_rows(
    isa: Isa,
    a: &Matrix,
    b: &Matrix,
    out: &mut [f32],
    row_begin: usize,
    row_end: usize,
) {
    let n = b.rows();
    assert!(
        a.cols() == b.cols()
            && row_begin <= row_end
            && row_end <= a.rows()
            && out.len() >= (row_end - row_begin) * n,
        "gemm_a_bt_rows shapes"
    );
    #[cfg(target_arch = "x86_64")]
    if isa == Isa::Avx2 {
        // SAFETY: see `gemm_rows`.
        unsafe { a_bt_rows_avx2(a, b, out, row_begin, row_end) };
        return;
    }
    for (local, r) in (row_begin..row_end).enumerate() {
        let a_row = a.row(r);
        for (j, o) in out[local * n..(local + 1) * n].iter_mut().enumerate() {
            *o = dot(isa, a_row, b.row(j));
        }
    }
}

/// One SpMM output row: `out = Σ vals[i] · x[row_of(cols[i])]` over the
/// nonzeros in order, from `+0`; a nonzero whose column `row_of` maps to
/// `None` contributes nothing. Called once per output row by every SpMM
/// in `skipnode_sparse` (full, row-subset, and column-mapped).
///
/// On AVX2 each panel of up to 64 columns of the row stays in eight
/// accumulator registers across all of the row's nonzeros — one
/// `fmadd(v, x, acc)` per element and nonzero, in nonzero order — and is
/// stored once, the last vector of a narrower panel masked. That is the
/// arithmetic [`axpy`] applies to each element, one nonzero after another,
/// so the bits equal a per-nonzero [`axpy`] loop over a zeroed row while
/// the output row is read and written once instead of once per nonzero.
/// Other ISAs run that [`axpy`] loop.
///
/// # Panics
/// Panics when `cols` and `vals` differ in length, `out` is not
/// `x.cols()` wide, or `row_of` names a row past `x`'s last.
#[inline]
pub fn spmm_row<F: Fn(u32) -> Option<usize>>(
    isa: Isa,
    cols: &[u32],
    vals: &[f32],
    row_of: F,
    x: &Matrix,
    out: &mut [f32],
) {
    assert!(
        cols.len() == vals.len() && out.len() == x.cols(),
        "spmm_row shapes"
    );
    #[cfg(target_arch = "x86_64")]
    if isa == Isa::Avx2 {
        // SAFETY: see `axpy` for the ISA; the assert above and the kernel's
        // per-nonzero row check are its shape contract.
        unsafe { spmm_row_avx2(cols, vals, &row_of, x, None, out) };
        return;
    }
    out.fill(0.0);
    for (&c, &v) in cols.iter().zip(vals) {
        if let Some(r) = row_of(c) {
            axpy(isa, v, x.row(r), out);
        }
    }
}

/// [`spmm_row`] with each element multiplied, as it is stored, by its
/// inverted-dropout factor: `0` where `dropped[i]`, else `scale`. The
/// backward of a dropout folded into a propagation: it stores
/// `dropout(Ãᵀ·g)` where the chain stored `Ãᵀ·g` and then scaled it in a
/// pass of its own, with the same product per element
/// ([`crate::apply_dropout`]'s), so the bits agree. On AVX2 the factor
/// multiplies the accumulator registers; other ISAs scale the finished
/// row.
///
/// # Panics
/// As [`spmm_row`], and when `dropped` is not `out.len()` long.
#[allow(clippy::too_many_arguments)]
#[inline]
pub fn spmm_row_dropout<F: Fn(u32) -> Option<usize>>(
    isa: Isa,
    cols: &[u32],
    vals: &[f32],
    row_of: F,
    x: &Matrix,
    dropped: &[bool],
    scale: f32,
    out: &mut [f32],
) {
    assert!(
        cols.len() == vals.len() && out.len() == x.cols() && dropped.len() == out.len(),
        "spmm_row shapes"
    );
    #[cfg(target_arch = "x86_64")]
    if isa == Isa::Avx2 {
        // SAFETY: as in `spmm_row`; `dropped` covers the row.
        unsafe { spmm_row_avx2(cols, vals, &row_of, x, Some((dropped, scale)), out) };
        return;
    }
    spmm_row(isa, cols, vals, row_of, x, out);
    for (t, &d) in out.iter_mut().zip(dropped) {
        *t *= epilogue::keep_factor(d, scale);
    }
}

/// Portable fallback matching the SIMD path's per-element semantics
/// (`mul_add` accumulation, zero-skip). Only reached when a vector ISA is
/// requested on a host without one (tests on exotic targets).
fn gemm_rows_portable(a: &Matrix, b: &Matrix, out: &mut [f32], row_begin: usize, row_end: usize) {
    let n = b.cols();
    let bd = b.as_slice();
    for (local, r) in (row_begin..row_end).enumerate() {
        let out_row = &mut out[local * n..(local + 1) * n];
        out_row.fill(0.0);
        for (p, &ap) in a.row(r).iter().enumerate() {
            if ap == 0.0 {
                continue;
            }
            let b_row = &bd[p * n..(p + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o = ap.mul_add(bv, *o);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Bitwise-class primitives (plain mul/add/max; bit-identical to scalar)
// ---------------------------------------------------------------------------

/// `y[i] += alpha * x[i]` with separate mul and add lanes — rounds exactly
/// like the scalar loop, so this stays bitwise on every ISA.
#[inline]
pub fn add_scaled(isa: Isa, y: &mut [f32], x: &[f32], alpha: f32) {
    #[cfg(target_arch = "x86_64")]
    if isa == Isa::Avx2 {
        // SAFETY: see `axpy`.
        unsafe { add_scaled_avx2(y, x, alpha) };
        return;
    }
    #[cfg(target_arch = "aarch64")]
    if isa == Isa::Neon {
        // SAFETY: NEON is baseline on aarch64.
        unsafe { add_scaled_neon(y, x, alpha) };
        return;
    }
    let _ = isa;
    for (a, &b) in y.iter_mut().zip(x) {
        *a += alpha * b;
    }
}

/// In-place ReLU, bit-identical to [`crate::relu_in_place`] per element on
/// the scalar and AVX2 paths: `v` when `v > 0`, else `+0.0` (the vector
/// `max(v, 0)` returns its second operand for `-0.0` and NaN).
#[inline]
pub fn relu(isa: Isa, y: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if isa == Isa::Avx2 {
        // SAFETY: see `axpy`.
        unsafe { relu_avx2(y) };
        return;
    }
    #[cfg(target_arch = "aarch64")]
    if isa == Isa::Neon {
        // SAFETY: NEON is baseline on aarch64.
        unsafe { relu_neon(y) };
        return;
    }
    let _ = isa;
    for v in y {
        *v = epilogue::relu(*v);
    }
}

/// Hyperparameters of one fused Adam step, pre-broadcast by the caller
/// ([`bias1`](AdamLanes::bias1)/[`bias2`](AdamLanes::bias2) are the
/// `1 - βᵢᵗ` bias corrections for the current step).
#[derive(Debug, Clone, Copy)]
pub struct AdamLanes {
    /// First-moment decay β₁.
    pub beta1: f32,
    /// Second-moment decay β₂.
    pub beta2: f32,
    /// Decoupled weight decay added into the gradient.
    pub weight_decay: f32,
    /// Learning rate (f64, as in the scalar reference).
    pub lr: f64,
    /// Denominator epsilon (f64).
    pub eps: f64,
    /// `1 - β₁ᵗ`.
    pub bias1: f64,
    /// `1 - β₂ᵗ`.
    pub bias2: f64,
}

/// One fused Adam update over a parameter slice: moments in f32 with plain
/// mul/add (no FMA), the moment-hat/denominator section in f64 exactly as
/// the scalar reference computes it. Bit-identical to the scalar loop on
/// every ISA. `grad = None` means an all-zero gradient (frozen tail of a
/// ragged parameter group) — the reference's `0.0 + wd·θ` path.
pub fn adam_step(
    isa: Isa,
    value: &mut [f32],
    m: &mut [f32],
    v: &mut [f32],
    grad: Option<&[f32]>,
    h: &AdamLanes,
) {
    #[cfg(target_arch = "x86_64")]
    if isa == Isa::Avx2 {
        // SAFETY: see `axpy`.
        unsafe { adam_step_avx2(value, m, v, grad, h) };
        return;
    }
    let _ = isa;
    adam_step_scalar(value, m, v, grad, h);
}

/// Scalar Adam element loop — the bitwise reference the vector path must
/// reproduce (and the remainder loop it shares).
fn adam_step_scalar(
    value: &mut [f32],
    m: &mut [f32],
    v: &mut [f32],
    grad: Option<&[f32]>,
    h: &AdamLanes,
) {
    let omb1 = 1.0 - h.beta1;
    let omb2 = 1.0 - h.beta2;
    for j in 0..value.len() {
        let g = grad.map_or(0.0, |g| g[j]) + h.weight_decay * value[j];
        let mj = h.beta1 * m[j] + omb1 * g;
        let vj = h.beta2 * v[j] + omb2 * g * g;
        m[j] = mj;
        v[j] = vj;
        let m_hat = mj as f64 / h.bias1;
        let v_hat = vj as f64 / h.bias2;
        let upd = h.lr * m_hat / (v_hat.sqrt() + h.eps);
        value[j] -= upd as f32;
    }
}

/// Draw `words` flag words on each of eight xoshiro256++ generators,
/// advancing all of them `words · 64 / FLAG_BITS` steps. A draw `d` gives
/// the flag `(d >> 11) < threshold`, as in `SplitRng::bernoulli`. Lane `k`
/// stores its `w`-th word little-endian at byte `k · stride + 8 · w` of
/// `out`; the word holds its `64 / FLAG_BITS` flags in draw order, one per
/// byte as 0 or 1 when `FLAG_BITS` is 8, one per bit when it is 1.
///
/// Integer arithmetic only, so every ISA gives the same bits. AVX2 runs the
/// eight lanes as two registers of four; every other ISA runs the portable
/// loop.
///
/// # Panics
/// Panics when `FLAG_BITS` is not 1 or 8, or when `words > 0` and a lane's
/// words overlap the next lane's or run past `out`.
pub(crate) fn bernoulli_lanes<const FLAG_BITS: i32>(
    isa: Isa,
    lanes: &mut [[u64; 4]; 8],
    threshold: u64,
    out: &mut [u8],
    stride: usize,
    words: usize,
) {
    assert!(
        FLAG_BITS == 1 || FLAG_BITS == 8,
        "one bit or one byte per flag"
    );
    if words == 0 {
        return;
    }
    assert!(
        8 * words <= stride && 7 * stride + 8 * words <= out.len(),
        "lane words overrun `out`"
    );
    #[cfg(target_arch = "x86_64")]
    if isa == Isa::Avx2 {
        // SAFETY: see `axpy` for the ISA; the assert above keeps every
        // store of the kernel inside `out`.
        unsafe {
            bernoulli_lanes_avx2::<FLAG_BITS>(lanes, threshold, out.as_mut_ptr(), stride, words)
        };
        return;
    }
    let _ = isa;
    for (k, s) in lanes.iter_mut().enumerate() {
        for w in 0..words {
            let mut word = 0u64;
            for _ in 0..64 / FLAG_BITS {
                let flag = (crate::rng::xoshiro_next(s) >> 11) < threshold;
                word = word >> FLAG_BITS | u64::from(flag) << (64 - FLAG_BITS);
            }
            let at = k * stride + 8 * w;
            out[at..at + 8].copy_from_slice(&word.to_le_bytes());
        }
    }
}

// ---------------------------------------------------------------------------
// AVX2 implementations
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{AdamLanes, Epilogue, Matrix};
    use std::arch::x86_64::*;

    /// Fixed-order horizontal sum: `((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))`.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn hsum(v: __m256) -> f32 {
        let mut lanes = [0.0f32; 8];
        _mm256_storeu_ps(lanes.as_mut_ptr(), v);
        ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
            + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]))
    }

    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn axpy_avx2(alpha: f32, x: &[f32], y: &mut [f32]) {
        let n = y.len().min(x.len());
        let av = _mm256_set1_ps(alpha);
        let mut i = 0;
        while i + 8 <= n {
            let xv = _mm256_loadu_ps(x.as_ptr().add(i));
            let yv = _mm256_loadu_ps(y.as_ptr().add(i));
            _mm256_storeu_ps(y.as_mut_ptr().add(i), _mm256_fmadd_ps(av, xv, yv));
            i += 8;
        }
        while i < n {
            *y.get_unchecked_mut(i) = alpha.mul_add(*x.get_unchecked(i), *y.get_unchecked(i));
            i += 1;
        }
    }

    /// `mul_add` compiles to one `vfmadd` here, like `axpy_avx2`'s tail.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn axpy_scatter_avx2(alpha: f32, idx: &[u32], x: &[f32], y: &mut [f32]) {
        for (&i, &xv) in idx.iter().zip(x) {
            let o = &mut y[i as usize];
            *o = alpha.mul_add(xv, *o);
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn dot_avx2(x: &[f32], y: &[f32]) -> f32 {
        let n = x.len().min(y.len());
        let mut acc = _mm256_setzero_ps();
        let mut i = 0;
        while i + 8 <= n {
            let xv = _mm256_loadu_ps(x.as_ptr().add(i));
            let yv = _mm256_loadu_ps(y.as_ptr().add(i));
            acc = _mm256_fmadd_ps(xv, yv, acc);
            i += 8;
        }
        let mut tail = 0.0f32;
        while i < n {
            tail = x.get_unchecked(i).mul_add(*y.get_unchecked(i), tail);
            i += 1;
        }
        hsum(acc) + tail
    }

    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn sum_sq_f64_avx2(x: &[f32]) -> f64 {
        let n = x.len();
        let mut acc0 = _mm256_setzero_pd();
        let mut acc1 = _mm256_setzero_pd();
        let mut i = 0;
        while i + 8 <= n {
            let v = _mm256_loadu_ps(x.as_ptr().add(i));
            let lo = _mm256_cvtps_pd(_mm256_castps256_ps128(v));
            let hi = _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1));
            acc0 = _mm256_fmadd_pd(lo, lo, acc0);
            acc1 = _mm256_fmadd_pd(hi, hi, acc1);
            i += 8;
        }
        let mut tail = 0.0f64;
        while i < n {
            let v = *x.get_unchecked(i) as f64;
            tail += v * v;
            i += 1;
        }
        let fold = |v: __m256d| {
            let mut lanes = [0.0f64; 4];
            _mm256_storeu_pd(lanes.as_mut_ptr(), v);
            (lanes[0] + lanes[1]) + (lanes[2] + lanes[3])
        };
        (fold(acc0) + fold(acc1)) + tail
    }

    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn add_scaled_avx2(y: &mut [f32], x: &[f32], alpha: f32) {
        let n = y.len().min(x.len());
        let av = _mm256_set1_ps(alpha);
        let mut i = 0;
        while i + 8 <= n {
            let xv = _mm256_loadu_ps(x.as_ptr().add(i));
            let yv = _mm256_loadu_ps(y.as_ptr().add(i));
            // mul + add, not FMA: bitwise with the scalar `*a += alpha * b`.
            _mm256_storeu_ps(
                y.as_mut_ptr().add(i),
                _mm256_add_ps(yv, _mm256_mul_ps(av, xv)),
            );
            i += 8;
        }
        while i < n {
            *y.get_unchecked_mut(i) += alpha * *x.get_unchecked(i);
            i += 1;
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn relu_avx2(y: &mut [f32]) {
        let n = y.len();
        let zero = _mm256_setzero_ps();
        let mut i = 0;
        while i + 8 <= n {
            let v = _mm256_loadu_ps(y.as_ptr().add(i));
            _mm256_storeu_ps(y.as_mut_ptr().add(i), _mm256_max_ps(v, zero));
            i += 8;
        }
        while i < n {
            let v = y.get_unchecked_mut(i);
            *v = super::epilogue::relu(*v);
            i += 1;
        }
    }

    /// Register-tile width: two 8-lane vectors of output columns.
    const NR: usize = 16;
    /// `Aᵀ·B` sums `r` in blocks of this many rows, so a block's window
    /// marks fit one `u64` per window and its rows of `A` and `B` (64 rows
    /// of a 64-wide `B` are 16 KiB) stay in L1 while every output tile of
    /// the chunk passes over them.
    const AT_B_ROW_BLOCK: usize = 64;

    /// Lane masks for the first `w` of a register tile's `NR` columns. The
    /// tile functions take `FULL` for `w == NR`, which loads and stores
    /// without the masks.
    #[derive(Clone, Copy)]
    struct Cols {
        mask: [__m256i; 2],
    }

    impl Cols {
        /// Masks selecting the first `w` of a tile's `NR` columns.
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        fn new(w: usize) -> Cols {
            let lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
            let upto = |w: usize| _mm256_cmpgt_epi32(_mm256_set1_epi32(w.min(8) as i32), lane);
            Cols {
                mask: [upto(w), upto(w.saturating_sub(8))],
            }
        }

        /// # Safety
        /// `p` must be valid for reads of the tile's columns: all `NR` when
        /// `FULL`, else those `mask` selects (the others are not touched).
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        unsafe fn load<const FULL: bool>(self, p: *const f32) -> [__m256; 2] {
            if FULL {
                [_mm256_loadu_ps(p), _mm256_loadu_ps(p.add(8))]
            } else {
                [
                    _mm256_maskload_ps(p, self.mask[0]),
                    _mm256_maskload_ps(p.wrapping_add(8), self.mask[1]),
                ]
            }
        }

        /// # Safety
        /// `p` must be valid for writes of the tile's columns, as in
        /// [`Cols::load`].
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        unsafe fn store<const FULL: bool>(self, p: *mut f32, v: [__m256; 2]) {
            if FULL {
                _mm256_storeu_ps(p, v[0]);
                _mm256_storeu_ps(p.add(8), v[1]);
            } else {
                _mm256_maskstore_ps(p, self.mask[0], v[0]);
                _mm256_maskstore_ps(p.wrapping_add(8), self.mask[1], v[1]);
            }
        }
    }

    /// What a tile applies to its registers before the store: `bias`
    /// points at the tile's first column of the bias row (null for none),
    /// then `max(v, 0)` when `relu` — lane for lane the scalar
    /// [`Epilogue`]: one add, and `max_ps(v, 0)` returns `+0` for `-0.0`
    /// and NaN as `f32::max(v, 0.0)` does.
    #[derive(Clone, Copy)]
    struct TileEpilogue {
        bias: *const f32,
        relu: bool,
    }

    impl TileEpilogue {
        const NONE: TileEpilogue = TileEpilogue {
            bias: std::ptr::null(),
            relu: false,
        };

        fn new(ep: Epilogue<'_>) -> TileEpilogue {
            TileEpilogue {
                bias: ep.bias.map_or(std::ptr::null(), <[f32]>::as_ptr),
                relu: ep.relu,
            }
        }
    }

    /// The rows `t` a tile sums over, ascending: a list of live rows, or a
    /// contiguous run walked by pointer increments.
    #[derive(Clone, Copy)]
    enum Live<'a> {
        List(&'a [usize]),
        Run(usize, usize),
    }

    /// One `R × NR` output tile at `out` (row stride `n`): starts from `+0`,
    /// or from `out` when `resume`, then adds every index `t` of `live` in
    /// order — `acc[q] = fma(a[q][t · a_step], b[t · n ..], acc[q])`, one
    /// FMA per element and no branch — and stores the tile through `ep`.
    /// `A·B` walks `t = p` along `R` rows of `A` (`a_step = 1`); `Aᵀ·B`
    /// walks `t = r` down `R` columns of `A` (`a_step` its row length).
    ///
    /// # Safety
    /// For every `t` in `live`, `a[q] + t · a_step` must be readable for
    /// each `q`, and `b + t · n` readable as in [`Cols::load`]; `out + q · n`
    /// must be readable and writable likewise for each `q < R`, and a
    /// non-null `ep.bias` readable as in [`Cols::load`].
    #[allow(clippy::too_many_arguments)]
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn tile<const R: usize, const FULL: bool>(
        a: &[*const f32; R],
        a_step: usize,
        live: Live<'_>,
        b: *const f32,
        n: usize,
        cols: Cols,
        out: *mut f32,
        resume: bool,
        ep: TileEpilogue,
    ) {
        let mut acc: [[__m256; 2]; R] = std::array::from_fn(|q| {
            if resume {
                cols.load::<FULL>(out.add(q * n))
            } else {
                [_mm256_setzero_ps(); 2]
            }
        });
        macro_rules! sum_over {
            ($rows:expr) => {
                for t in $rows {
                    let bv = cols.load::<FULL>(b.add(t * n));
                    for (accq, aq) in acc.iter_mut().zip(a) {
                        let av = _mm256_set1_ps(*aq.add(t * a_step));
                        accq[0] = _mm256_fmadd_ps(av, bv[0], accq[0]);
                        accq[1] = _mm256_fmadd_ps(av, bv[1], accq[1]);
                    }
                }
            };
        }
        match live {
            Live::List(list) => sum_over!(list.iter().copied()),
            Live::Run(lo, hi) => sum_over!(lo..hi),
        }
        if !ep.bias.is_null() {
            let bv = cols.load::<FULL>(ep.bias);
            for accq in acc.iter_mut() {
                accq[0] = _mm256_add_ps(accq[0], bv[0]);
                accq[1] = _mm256_add_ps(accq[1], bv[1]);
            }
        }
        if ep.relu {
            let zero = _mm256_setzero_ps();
            for accq in acc.iter_mut() {
                accq[0] = _mm256_max_ps(accq[0], zero);
                accq[1] = _mm256_max_ps(accq[1], zero);
            }
        }
        for (q, accq) in acc.iter().enumerate() {
            cols.store::<FULL>(out.add(q * n), *accq);
        }
    }

    /// Every column tile of `R` output rows at `out` (row stride `n`), the
    /// last one masked; see [`tile`].
    ///
    /// # Safety
    /// As for [`tile`], for every column tile of the `n` columns; a
    /// non-null `ep.bias` must be readable for `n` floats.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn tile_row<const R: usize>(
        a: &[*const f32; R],
        a_step: usize,
        live: Live<'_>,
        b: *const f32,
        n: usize,
        out: *mut f32,
        resume: bool,
        ep: TileEpilogue,
    ) {
        let mut jt = 0;
        while jt < n {
            let w = NR.min(n - jt);
            let (b, o, cols) = (b.add(jt), out.add(jt), Cols::new(w));
            let ep = TileEpilogue {
                bias: if ep.bias.is_null() {
                    ep.bias
                } else {
                    ep.bias.add(jt)
                },
                relu: ep.relu,
            };
            if w == NR {
                tile::<R, true>(a, a_step, live, b, n, cols, o, resume, ep);
            } else {
                tile::<R, false>(a, a_step, live, b, n, cols, o, resume, ep);
            }
            jt += w;
        }
    }

    /// Writes to `live`, ascending, every `p < k` at which one of the `R`
    /// rows is nonzero (NaN counts as nonzero and `-0.0` as zero, as in the
    /// scalar kernels' `== 0.0` tests), and returns how many. Branch-free: each
    /// `p` is written, and the count only steps past the live ones.
    ///
    /// # Safety
    /// Each row pointer must be readable for `k` floats.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn live_columns<const R: usize>(
        rows: &[*const f32; R],
        k: usize,
        live: &mut [usize],
    ) -> usize {
        let zero = _mm256_setzero_ps();
        let mut c = 0;
        let mut p = 0;
        while p + 8 <= k {
            let mut nz = _mm256_setzero_ps();
            for row in rows {
                let v = _mm256_loadu_ps(row.add(p));
                nz = _mm256_or_ps(nz, _mm256_cmp_ps::<_CMP_NEQ_UQ>(v, zero));
            }
            let bits = _mm256_movemask_ps(nz);
            for lane in 0..8 {
                live[c] = p + lane;
                c += (bits >> lane & 1) as usize;
            }
            p += 8;
        }
        while p < k {
            live[c] = p;
            c += rows.iter().fold(false, |nz, row| nz | (*row.add(p) != 0.0)) as usize;
            p += 1;
        }
        c
    }

    /// One block of `R` rows of `A·B` into `out` (row stride `n`): the
    /// live-window list once, then every column tile over it.
    ///
    /// # Safety
    /// Each row pointer must be readable for `k` floats, `b` for `k × n`
    /// and `out` writable for `R × n`; `live` must hold `k` entries and a
    /// non-null `ep.bias` be readable for `n` floats.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn ab_row_block<const R: usize>(
        rows: &[*const f32; R],
        k: usize,
        b: *const f32,
        n: usize,
        live: &mut [usize],
        out: *mut f32,
        ep: TileEpilogue,
    ) {
        let c = live_columns(rows, k, live);
        tile_row(rows, 1, Live::List(&live[..c]), b, n, out, false, ep);
    }

    /// Register-tiled GEMM rows `[row_begin, row_end)` of `a·b` into the
    /// row block `out`: 4-row blocks (single rows for the remainder) ×
    /// 16-column tiles, the last tile masked. Each block first lists the
    /// `p` whose window of `A` is not all zero, branch-free, then runs its
    /// tiles over that list only, each element summing `p` in ascending
    /// order with FMA from `+0`, and stores each tile through `ep`.
    ///
    /// # Safety
    /// The host must support AVX2 and FMA; `a.cols() == b.rows()`,
    /// `row_end <= a.rows()`, `out.len() >= (row_end - row_begin) ·
    /// b.cols()` and the bias, if any, holds `b.cols()` values.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn gemm_rows_avx2(
        a: &Matrix,
        b: &Matrix,
        ep: Epilogue<'_>,
        out: &mut [f32],
        row_begin: usize,
        row_end: usize,
    ) {
        const MR: usize = 4;
        let k = a.cols();
        let n = b.cols();
        let bd = b.as_slice().as_ptr();
        let ep = TileEpilogue::new(ep);
        let mut live = vec![0usize; k];
        let mut i = row_begin;
        while i < row_end {
            let o = out.as_mut_ptr().add((i - row_begin) * n);
            if row_end - i >= MR {
                let rows: [*const f32; MR] = std::array::from_fn(|q| a.row(i + q).as_ptr());
                ab_row_block(&rows, k, bd, n, &mut live, o, ep);
                i += MR;
            } else {
                ab_row_block(&[a.row(i).as_ptr()], k, bd, n, &mut live, o, ep);
                i += 1;
            }
        }
    }

    /// Sets, for each row `r` of `rows` (at most [`AT_B_ROW_BLOCK`]) and
    /// each 4-wide window `t` of `a[r][p_begin..p_end]` (the last one
    /// possibly narrower), bit `r - rows.start` of `nonzero[t]` when the
    /// window is not all zero (NaN counts as nonzero and `-0.0` as zero, as
    /// in `live_columns`). Reads each row once, front to back.
    ///
    /// # Safety
    /// `a` must hold every row of `rows` with row length `lda >= p_end`,
    /// and `nonzero` one entry per window.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn window_bits(
        a: *const f32,
        lda: usize,
        rows: std::ops::Range<usize>,
        p_begin: usize,
        p_end: usize,
        nonzero: &mut [u64],
    ) {
        let zero = _mm256_setzero_ps();
        nonzero.fill(0);
        for (shift, r) in rows.enumerate() {
            let row = a.add(r * lda);
            let mut p = p_begin;
            let mut t = 0;
            while p + 8 <= p_end {
                let v = _mm256_loadu_ps(row.add(p));
                let bits = _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_NEQ_UQ>(v, zero));
                nonzero[t] |= u64::from(bits & 0xf != 0) << shift;
                nonzero[t + 1] |= u64::from(bits >> 4 != 0) << shift;
                p += 8;
                t += 2;
            }
            while p < p_end {
                let w = 4.min(p_end - p);
                let nz = (0..w).fold(false, |nz, q| nz | (*row.add(p + q) != 0.0));
                nonzero[t] |= u64::from(nz) << shift;
                p += w;
                t += 1;
            }
        }
    }

    /// Register-tiled `Aᵀ·B` rows `[p_begin, p_end)` into the row block
    /// `out`: 4×16 output tiles held in registers while `r` runs in
    /// ascending blocks of [`AT_B_ROW_BLOCK`] rows, each block loading the
    /// tile from `out` and storing it back, so each element sums
    /// `r = 0..m` in order from `+0`. One front-to-back pass over the
    /// block's rows marks, in one word per 4-wide window of `A`, the rows
    /// whose window is not all zero. A tile whose word marks every row of
    /// the block walks the block's rows by pointer increments; any other
    /// lists its live rows from the word, ascending, and runs over them
    /// only. Either way each element keeps its `r` order, so the path
    /// taken never changes a bit.
    ///
    /// # Safety
    /// The host must support AVX2 and FMA; `a.rows() == b.rows()`,
    /// `p_end <= a.cols()` and `out.len() >= (p_end - p_begin) · b.cols()`.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn at_b_rows_avx2(
        a: &Matrix,
        b: &Matrix,
        out: &mut [f32],
        p_begin: usize,
        p_end: usize,
    ) {
        let (m, lda) = a.shape();
        let n = b.cols();
        if m == 0 {
            out[..(p_end - p_begin) * n].fill(0.0);
            return;
        }
        let ad = a.as_slice().as_ptr();
        let bd = b.as_slice().as_ptr();
        let mut nonzero = vec![0u64; (p_end - p_begin).div_ceil(4)];
        let mut live = [0usize; AT_B_ROW_BLOCK];
        let mut r0 = 0;
        while r0 < m {
            let r1 = (r0 + AT_B_ROW_BLOCK).min(m);
            window_bits(ad, lda, r0..r1, p_begin, p_end, &mut nonzero);
            let all = u64::MAX >> (AT_B_ROW_BLOCK - (r1 - r0));
            for (t, &word) in nonzero.iter().enumerate() {
                let rows = if word == all {
                    Live::Run(r0, r1)
                } else {
                    let mut c = 0;
                    let mut word = word;
                    while word != 0 {
                        live[c] = r0 + word.trailing_zeros() as usize;
                        c += 1;
                        word &= word - 1;
                    }
                    Live::List(&live[..c])
                };
                // Output rows p.. take column p.. of A: one pointer per row.
                let p = p_begin + 4 * t;
                let ap = |q: usize| ad.add(p + q);
                let (o, resume, ep) = (out.as_mut_ptr().add(4 * t * n), r0 > 0, TileEpilogue::NONE);
                match (p_end - p).min(4) {
                    4 => tile_row(
                        &[ap(0), ap(1), ap(2), ap(3)],
                        lda,
                        rows,
                        bd,
                        n,
                        o,
                        resume,
                        ep,
                    ),
                    3 => tile_row(&[ap(0), ap(1), ap(2)], lda, rows, bd, n, o, resume, ep),
                    2 => tile_row(&[ap(0), ap(1)], lda, rows, bd, n, o, resume, ep),
                    _ => tile_row(&[ap(0)], lda, rows, bd, n, o, resume, ep),
                }
            }
            r0 = r1;
        }
    }

    /// Rows `rows` of `A·Bᵀ` into `out` (row stride `b.rows()`): each pass
    /// holds `R` rows of `A` against four rows of `B` in `4R` 8-lane
    /// accumulators, then folds each four outputs at once with
    /// `hadd(hadd(v0, v1), hadd(v2, v3))` and a low-plus-high add — per
    /// element `((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))`, [`hsum`]'s order —
    /// and adds the scalar `k % 8` tail chain (`+0.0` when empty), as
    /// [`dot_avx2`] does for the column remainder.
    ///
    /// # Safety
    /// The host must support AVX2 and FMA; every row must have `b.cols()`
    /// entries and `out` must be writable for `R × b.rows()`.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn a_bt_row_block<const R: usize>(rows: [&[f32]; R], b: &Matrix, out: *mut f32) {
        let k = b.cols();
        let n = b.rows();
        let mut j = 0;
        while j + 4 <= n {
            let bj: [*const f32; 4] = std::array::from_fn(|c| b.row(j + c).as_ptr());
            let mut acc = [[_mm256_setzero_ps(); 4]; R];
            let mut p = 0;
            while p + 8 <= k {
                let bv: [__m256; 4] = std::array::from_fn(|c| _mm256_loadu_ps(bj[c].add(p)));
                for (accq, row) in acc.iter_mut().zip(&rows) {
                    let av = _mm256_loadu_ps(row.as_ptr().add(p));
                    for (o, &bvc) in accq.iter_mut().zip(&bv) {
                        *o = _mm256_fmadd_ps(av, bvc, *o);
                    }
                }
                p += 8;
            }
            for (q, (accq, row)) in acc.iter().zip(&rows).enumerate() {
                let mut tail = [0.0f32; 4];
                for (pt, &x) in row.iter().enumerate().skip(p) {
                    for (t, bjc) in tail.iter_mut().zip(&bj) {
                        *t = x.mul_add(*bjc.add(pt), *t);
                    }
                }
                let h = _mm256_hadd_ps(
                    _mm256_hadd_ps(accq[0], accq[1]),
                    _mm256_hadd_ps(accq[2], accq[3]),
                );
                let sums = _mm_add_ps(_mm256_castps256_ps128(h), _mm256_extractf128_ps::<1>(h));
                let v = _mm_add_ps(sums, _mm_loadu_ps(tail.as_ptr()));
                _mm_storeu_ps(out.add(q * n + j), v);
            }
            j += 4;
        }
        for jj in j..n {
            for (q, row) in rows.iter().enumerate() {
                *out.add(q * n + jj) = dot_avx2(row, b.row(jj));
            }
        }
    }

    /// Register-tiled `A·Bᵀ` rows `[row_begin, row_end)` into the row block
    /// `out`: two rows of `A` per pass (one for an odd last row), see
    /// `a_bt_row_block`.
    ///
    /// # Safety
    /// The host must support AVX2 and FMA; `a.cols() == b.cols()`,
    /// `row_end <= a.rows()` and `out.len() >= (row_end - row_begin) ·
    /// b.rows()`.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn a_bt_rows_avx2(
        a: &Matrix,
        b: &Matrix,
        out: &mut [f32],
        row_begin: usize,
        row_end: usize,
    ) {
        let n = b.rows();
        let mut i = row_begin;
        while i < row_end {
            let o = out.as_mut_ptr().add((i - row_begin) * n);
            if row_end - i >= 2 {
                a_bt_row_block([a.row(i), a.row(i + 1)], b, o);
                i += 2;
            } else {
                a_bt_row_block([a.row(i)], b, o);
                i += 1;
            }
        }
    }

    /// SpMM panel width in columns: eight 8-lane accumulators.
    const SPMM_PANEL: usize = 64;

    /// One panel of an SpMM output row: `V` accumulators (the last one
    /// masked by `mask` when `MASKED`) over every nonzero, stored once at
    /// `out` — multiplied first, when `keep` is not null, by each element's
    /// dropout factor (`0` where `keep`'s flag is set, else `scale`). `x`
    /// points at the panel's first column of row 0 (row stride `d`);
    /// `rows` bounds the rows `row_of` may name.
    ///
    /// # Safety
    /// Row `r < rows` of `x` must be readable and `out` writable for the
    /// panel's columns: all `8V` unless `MASKED`, else those `mask`
    /// selects in the last vector; a non-null `keep` must be readable for
    /// the same columns.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn spmm_panel<const V: usize, const MASKED: bool, F: Fn(u32) -> Option<usize>>(
        cols: &[u32],
        vals: &[f32],
        row_of: &F,
        x: *const f32,
        d: usize,
        rows: usize,
        mask: __m256i,
        keep: *const bool,
        scale: __m256,
        out: *mut f32,
    ) {
        let mut acc = [_mm256_setzero_ps(); V];
        for (&c, &v) in cols.iter().zip(vals) {
            let Some(r) = row_of(c) else { continue };
            assert!(r < rows, "spmm_row: row {r} out of range");
            let xr = x.add(r * d);
            let av = _mm256_set1_ps(v);
            for (i, a) in acc.iter_mut().enumerate() {
                let xv = if MASKED && i + 1 == V {
                    _mm256_maskload_ps(xr.add(8 * i), mask)
                } else {
                    _mm256_loadu_ps(xr.add(8 * i))
                };
                *a = _mm256_fmadd_ps(av, xv, *a);
            }
        }
        if !keep.is_null() {
            for (i, a) in acc.iter_mut().enumerate() {
                // Eight flags as bytes (0 or 1), fewer in a masked vector.
                let flags = keep.add(8 * i).cast::<u8>();
                let bytes = if MASKED && i + 1 == V {
                    let lanes = _mm256_movemask_ps(_mm256_castsi256_ps(mask)).count_ones();
                    (0..lanes as usize).fold(0u64, |w, l| w | u64::from(*flags.add(l)) << (8 * l))
                } else {
                    flags.cast::<u64>().read_unaligned()
                };
                let dropped = _mm256_cvtepu8_epi32(_mm_cvtsi64_si128(bytes as i64));
                let kept = _mm256_cmpeq_epi32(dropped, _mm256_setzero_si256());
                *a = _mm256_mul_ps(*a, _mm256_and_ps(_mm256_castsi256_ps(kept), scale));
            }
        }
        for (i, a) in acc.iter().enumerate() {
            if MASKED && i + 1 == V {
                _mm256_maskstore_ps(out.add(8 * i), mask, *a);
            } else {
                _mm256_storeu_ps(out.add(8 * i), *a);
            }
        }
    }

    /// [`super::spmm_row`] and [`super::spmm_row_dropout`]: panels of
    /// [`SPMM_PANEL`] columns, each held in registers across all of the
    /// row's nonzeros and scaled by `keep`'s dropout factors, when given,
    /// before the store.
    ///
    /// # Safety
    /// The host must support AVX2 and FMA; `cols.len() == vals.len()`,
    /// `out.len() == x.cols()` and the flags of `keep` cover `out`.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn spmm_row_avx2<F: Fn(u32) -> Option<usize>>(
        cols: &[u32],
        vals: &[f32],
        row_of: &F,
        x: &Matrix,
        keep: Option<(&[bool], f32)>,
        out: &mut [f32],
    ) {
        let (rows, d) = x.shape();
        let lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        let (flags, scale) = match keep {
            Some((flags, scale)) => (flags.as_ptr(), _mm256_set1_ps(scale)),
            None => (std::ptr::null(), _mm256_setzero_ps()),
        };
        let mut jt = 0;
        while jt < d {
            let w = SPMM_PANEL.min(d - jt);
            let (xp, o) = (
                x.as_slice().as_ptr().wrapping_add(jt),
                out.as_mut_ptr().add(jt),
            );
            let k = if flags.is_null() {
                flags
            } else {
                flags.add(jt)
            };
            let mask = _mm256_cmpgt_epi32(_mm256_set1_epi32((w % 8) as i32), lane);
            macro_rules! panel {
                ($($v:literal)*) => {
                    match (w.div_ceil(8), w % 8 != 0) {
                        $(
                            ($v, false) => spmm_panel::<$v, false, F>(cols, vals, row_of, xp, d, rows, mask, k, scale, o),
                            ($v, true) => spmm_panel::<$v, true, F>(cols, vals, row_of, xp, d, rows, mask, k, scale, o),
                        )*
                        _ => unreachable!("a panel holds 1 to 8 vectors"),
                    }
                };
            }
            panel!(1 2 3 4 5 6 7 8);
            jt += w;
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn adam_step_avx2(
        value: &mut [f32],
        m: &mut [f32],
        v: &mut [f32],
        grad: Option<&[f32]>,
        h: &AdamLanes,
    ) {
        let n = value.len();
        let wd = _mm256_set1_ps(h.weight_decay);
        let b1 = _mm256_set1_ps(h.beta1);
        let b2 = _mm256_set1_ps(h.beta2);
        let omb1 = _mm256_set1_ps(1.0 - h.beta1);
        let omb2 = _mm256_set1_ps(1.0 - h.beta2);
        let bc1 = _mm256_set1_pd(h.bias1);
        let bc2 = _mm256_set1_pd(h.bias2);
        let lr = _mm256_set1_pd(h.lr);
        let eps = _mm256_set1_pd(h.eps);
        let zero = _mm256_setzero_ps();
        let mut i = 0;
        while i + 8 <= n {
            let val = _mm256_loadu_ps(value.as_ptr().add(i));
            let gv = match grad {
                Some(g) => _mm256_loadu_ps(g.as_ptr().add(i)),
                None => zero,
            };
            // g = grad + wd*θ; m' = β₁m + (1-β₁)g; v' = β₂v + ((1-β₂)g)·g —
            // plain mul/add in the scalar association order (bitwise).
            let g = _mm256_add_ps(gv, _mm256_mul_ps(wd, val));
            let mv = _mm256_loadu_ps(m.as_ptr().add(i));
            let vv = _mm256_loadu_ps(v.as_ptr().add(i));
            let m_new = _mm256_add_ps(_mm256_mul_ps(b1, mv), _mm256_mul_ps(omb1, g));
            let v_new = _mm256_add_ps(
                _mm256_mul_ps(b2, vv),
                _mm256_mul_ps(_mm256_mul_ps(omb2, g), g),
            );
            _mm256_storeu_ps(m.as_mut_ptr().add(i), m_new);
            _mm256_storeu_ps(v.as_mut_ptr().add(i), v_new);
            // f64 section: m̂ = m'/bc₁, v̂ = v'/bc₂, upd = lr·m̂/(√v̂+ε) —
            // div/sqrt/convert are IEEE-exact elementwise, matching scalar.
            let upd_half = |m128: __m128, v128: __m128| -> __m128 {
                let m64 = _mm256_cvtps_pd(m128);
                let v64 = _mm256_cvtps_pd(v128);
                let m_hat = _mm256_div_pd(m64, bc1);
                let v_hat = _mm256_div_pd(v64, bc2);
                let denom = _mm256_add_pd(_mm256_sqrt_pd(v_hat), eps);
                _mm256_cvtpd_ps(_mm256_div_pd(_mm256_mul_pd(lr, m_hat), denom))
            };
            let lo = upd_half(_mm256_castps256_ps128(m_new), _mm256_castps256_ps128(v_new));
            let hi = upd_half(
                _mm256_extractf128_ps(m_new, 1),
                _mm256_extractf128_ps(v_new, 1),
            );
            let upd = _mm256_set_m128(hi, lo);
            _mm256_storeu_ps(value.as_mut_ptr().add(i), _mm256_sub_ps(val, upd));
            i += 8;
        }
        if i < n {
            super::adam_step_scalar(
                &mut value[i..],
                &mut m[i..],
                &mut v[i..],
                grad.map(|g| &g[i..]),
                h,
            );
        }
    }

    /// One xoshiro256++ step on four generators, state word `j` of all four
    /// in `s[j]`: the draws, with `s` advanced. AVX2 has no 64-bit rotate,
    /// so each rotate is two shifts and an or.
    ///
    /// # Safety
    /// The host must support AVX2.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn xoshiro_next_x4(s: &mut [__m256i; 4]) -> __m256i {
        let sum = _mm256_add_epi64(s[0], s[3]);
        let rot = _mm256_or_si256(_mm256_slli_epi64::<23>(sum), _mm256_srli_epi64::<41>(sum));
        let result = _mm256_add_epi64(rot, s[0]);
        let t = _mm256_slli_epi64::<17>(s[1]);
        s[2] = _mm256_xor_si256(s[2], s[0]);
        s[3] = _mm256_xor_si256(s[3], s[1]);
        s[1] = _mm256_xor_si256(s[1], s[2]);
        s[0] = _mm256_xor_si256(s[0], s[3]);
        s[2] = _mm256_xor_si256(s[2], t);
        s[3] = _mm256_or_si256(_mm256_slli_epi64::<45>(s[3]), _mm256_srli_epi64::<19>(s[3]));
        result
    }

    /// [`super::bernoulli_lanes`] on two registers of four lanes.
    ///
    /// # Safety
    /// The host must support AVX2, and `out` must be valid for writes of 8
    /// bytes at `k · stride + 8 · w` for every lane `k < 8` and `w < words`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn bernoulli_lanes_avx2<const FLAG_BITS: i32>(
        lanes: &mut [[u64; 4]; 8],
        threshold: u64,
        out: *mut u8,
        stride: usize,
        words: usize,
    ) {
        let mut st = [[_mm256_setzero_si256(); 4]; 2];
        for (h, regs) in st.iter_mut().enumerate() {
            for (j, reg) in regs.iter_mut().enumerate() {
                let l = &lanes[4 * h..4 * h + 4];
                *reg = _mm256_set_epi64x(
                    l[3][j] as i64,
                    l[2][j] as i64,
                    l[1][j] as i64,
                    l[0][j] as i64,
                );
            }
        }
        // A shifted draw is below 2^53, so capping the threshold there
        // keeps the signed compare equal to the unsigned one.
        let thr = _mm256_set1_epi64x(threshold.min(1 << 53) as i64);
        let top = _mm256_set1_epi64x((1u64 << (64 - FLAG_BITS)) as i64);
        let mut word = [0u64; 8];
        for w in 0..words {
            let mut acc = [_mm256_setzero_si256(); 2];
            for _ in 0..64 / FLAG_BITS {
                for (regs, acc) in st.iter_mut().zip(&mut acc) {
                    let draw = _mm256_srli_epi64::<11>(xoshiro_next_x4(regs));
                    let flag = _mm256_and_si256(_mm256_cmpgt_epi64(thr, draw), top);
                    *acc = _mm256_or_si256(_mm256_srli_epi64::<FLAG_BITS>(*acc), flag);
                }
            }
            _mm256_storeu_si256(word.as_mut_ptr().cast(), acc[0]);
            _mm256_storeu_si256(word.as_mut_ptr().add(4).cast(), acc[1]);
            for (k, &v) in word.iter().enumerate() {
                out.add(k * stride + 8 * w)
                    .cast::<u64>()
                    .write_unaligned(v.to_le());
            }
        }
        for (h, regs) in st.iter().enumerate() {
            for (j, reg) in regs.iter().enumerate() {
                let mut v = [0u64; 4];
                _mm256_storeu_si256(v.as_mut_ptr().cast(), *reg);
                for (lane, &x) in lanes[4 * h..4 * h + 4].iter_mut().zip(&v) {
                    lane[j] = x;
                }
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
use avx2::{
    a_bt_rows_avx2, adam_step_avx2, add_scaled_avx2, at_b_rows_avx2, axpy_avx2, axpy_scatter_avx2,
    bernoulli_lanes_avx2, dot_avx2, gemm_rows_avx2, relu_avx2, spmm_row_avx2, sum_sq_f64_avx2,
};

// ---------------------------------------------------------------------------
// NEON implementations (aarch64 baseline; f64-heavy Adam stays scalar)
// ---------------------------------------------------------------------------

#[cfg(target_arch = "aarch64")]
mod neon {
    use super::Matrix;
    use std::arch::aarch64::*;

    #[target_feature(enable = "neon")]
    pub unsafe fn axpy_neon(alpha: f32, x: &[f32], y: &mut [f32]) {
        let n = y.len().min(x.len());
        let mut i = 0;
        while i + 4 <= n {
            let xv = vld1q_f32(x.as_ptr().add(i));
            let yv = vld1q_f32(y.as_ptr().add(i));
            vst1q_f32(y.as_mut_ptr().add(i), vfmaq_n_f32(yv, xv, alpha));
            i += 4;
        }
        while i < n {
            *y.get_unchecked_mut(i) = alpha.mul_add(*x.get_unchecked(i), *y.get_unchecked(i));
            i += 1;
        }
    }

    #[target_feature(enable = "neon")]
    pub unsafe fn dot_neon(x: &[f32], y: &[f32]) -> f32 {
        let n = x.len().min(y.len());
        let mut acc = vdupq_n_f32(0.0);
        let mut i = 0;
        while i + 4 <= n {
            let xv = vld1q_f32(x.as_ptr().add(i));
            let yv = vld1q_f32(y.as_ptr().add(i));
            acc = vfmaq_f32(acc, xv, yv);
            i += 4;
        }
        let mut tail = 0.0f32;
        while i < n {
            tail = x.get_unchecked(i).mul_add(*y.get_unchecked(i), tail);
            i += 1;
        }
        let mut lanes = [0.0f32; 4];
        vst1q_f32(lanes.as_mut_ptr(), acc);
        ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) + tail
    }

    #[target_feature(enable = "neon")]
    pub unsafe fn add_scaled_neon(y: &mut [f32], x: &[f32], alpha: f32) {
        let n = y.len().min(x.len());
        let av = vdupq_n_f32(alpha);
        let mut i = 0;
        while i + 4 <= n {
            let xv = vld1q_f32(x.as_ptr().add(i));
            let yv = vld1q_f32(y.as_ptr().add(i));
            // mul + add (not fused) to stay bitwise with the scalar loop.
            vst1q_f32(y.as_mut_ptr().add(i), vaddq_f32(yv, vmulq_f32(av, xv)));
            i += 4;
        }
        while i < n {
            *y.get_unchecked_mut(i) += alpha * *x.get_unchecked(i);
            i += 1;
        }
    }

    #[target_feature(enable = "neon")]
    pub unsafe fn relu_neon(y: &mut [f32]) {
        let n = y.len();
        let zero = vdupq_n_f32(0.0);
        let mut i = 0;
        while i + 4 <= n {
            let v = vld1q_f32(y.as_ptr().add(i));
            vst1q_f32(y.as_mut_ptr().add(i), vmaxq_f32(v, zero));
            i += 4;
        }
        while i < n {
            let v = y.get_unchecked_mut(i);
            *v = v.max(0.0);
            i += 1;
        }
    }

    /// NEON GEMM rows: `MR = 4` output rows × `NU = 4` 4-lane column
    /// vectors per tile.
    #[target_feature(enable = "neon")]
    pub unsafe fn gemm_rows_neon(
        a: &Matrix,
        b: &Matrix,
        out: &mut [f32],
        row_begin: usize,
        row_end: usize,
    ) {
        const MR: usize = 4;
        const NU: usize = 4;
        let k = a.cols();
        let n = b.cols();
        let bd = b.as_slice();
        let nr = NU * 4;
        let rows = row_end - row_begin;
        let mut i = 0;
        while i < rows {
            let mr = MR.min(rows - i);
            let r0 = row_begin + i;
            let mut jt = 0;
            while jt < n {
                let w = nr.min(n - jt);
                if mr == MR && w == nr {
                    let a_ptrs: [*const f32; MR] = std::array::from_fn(|r| a.row(r0 + r).as_ptr());
                    let mut acc = [[vdupq_n_f32(0.0); NU]; MR];
                    for p in 0..k {
                        let avals: [f32; MR] = std::array::from_fn(|r| *a_ptrs[r].add(p));
                        if avals == [0.0; MR] {
                            continue;
                        }
                        let bp = bd.as_ptr().add(p * n + jt);
                        let bv: [float32x4_t; NU] =
                            std::array::from_fn(|u| vld1q_f32(bp.add(u * 4)));
                        for (accr, &ar) in acc.iter_mut().zip(&avals) {
                            for (o, &bvu) in accr.iter_mut().zip(&bv) {
                                *o = vfmaq_n_f32(*o, bvu, ar);
                            }
                        }
                    }
                    for (r, accr) in acc.iter().enumerate() {
                        let optr = out.as_mut_ptr().add((i + r) * n + jt);
                        for (u, &o) in accr.iter().enumerate() {
                            vst1q_f32(optr.add(u * 4), o);
                        }
                    }
                } else {
                    let mut acc = [0.0f32; 16];
                    for r in 0..mr {
                        let a_row = a.row(r0 + r);
                        acc[..w].fill(0.0);
                        for (p, &ap) in a_row.iter().enumerate() {
                            if ap == 0.0 {
                                continue;
                            }
                            let bp = &bd[p * n + jt..p * n + jt + w];
                            for (o, &bv) in acc[..w].iter_mut().zip(bp) {
                                *o = ap.mul_add(bv, *o);
                            }
                        }
                        out[(i + r) * n + jt..(i + r) * n + jt + w].copy_from_slice(&acc[..w]);
                    }
                }
                jt += w;
            }
            i += mr;
        }
    }
}

#[cfg(target_arch = "aarch64")]
use neon::{add_scaled_neon, axpy_neon, dot_neon, gemm_rows_neon, relu_neon};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitRng;

    fn vector_isa() -> Option<Isa> {
        [Isa::Avx2, Isa::Neon]
            .into_iter()
            .find(|&isa| supported(isa))
    }

    #[test]
    fn force_clamps_unsupported_requests() {
        let prev = active();
        assert_eq!(force(Isa::Scalar), Isa::Scalar);
        let v = force(Isa::Avx2);
        assert!(v == Isa::Avx2 || v == Isa::Scalar);
        force(prev);
    }

    #[test]
    fn add_scaled_is_bitwise_vs_scalar() {
        let Some(isa) = vector_isa() else { return };
        let mut rng = SplitRng::new(11);
        for len in [0usize, 1, 3, 8, 13, 64, 257] {
            let x: Vec<f32> = (0..len).map(|_| rng.uniform(-2.0, 2.0)).collect();
            let mut y_s: Vec<f32> = (0..len).map(|_| rng.uniform(-2.0, 2.0)).collect();
            let mut y_v = y_s.clone();
            add_scaled(Isa::Scalar, &mut y_s, &x, 0.37);
            add_scaled(isa, &mut y_v, &x, 0.37);
            assert_eq!(y_s, y_v, "len {len}");
        }
    }

    #[test]
    fn relu_is_bitwise_vs_scalar_on_nonzero_inputs() {
        let Some(isa) = vector_isa() else { return };
        let mut rng = SplitRng::new(12);
        for len in [1usize, 7, 8, 9, 31, 200] {
            let mut y_s: Vec<f32> = (0..len).map(|_| rng.uniform(-1.0, 1.0)).collect();
            let mut y_v = y_s.clone();
            relu(Isa::Scalar, &mut y_s);
            relu(isa, &mut y_v);
            assert_eq!(y_s, y_v, "len {len}");
        }
    }

    #[test]
    fn axpy_and_dot_are_close_to_scalar() {
        let Some(isa) = vector_isa() else { return };
        let mut rng = SplitRng::new(13);
        for len in [1usize, 5, 8, 17, 100] {
            let x: Vec<f32> = (0..len).map(|_| rng.uniform(-1.0, 1.0)).collect();
            let y0: Vec<f32> = (0..len).map(|_| rng.uniform(-1.0, 1.0)).collect();
            let mut y_s = y0.clone();
            let mut y_v = y0.clone();
            axpy(Isa::Scalar, 0.9, &x, &mut y_s);
            axpy(isa, 0.9, &x, &mut y_v);
            for (a, b) in y_s.iter().zip(&y_v) {
                assert!((a - b).abs() <= 1e-5 * a.abs().max(1.0));
            }
            let ds = dot(Isa::Scalar, &x, &y0);
            let dv = dot(isa, &x, &y0);
            assert!((ds - dv).abs() <= 1e-4 * ds.abs().max(1.0));
        }
    }

    /// Scattering a sparse row equals the dense axpy of the row with its
    /// zeros filled in, bit for bit, on every available ISA.
    #[test]
    fn axpy_scatter_matches_dense_axpy_bitwise() {
        let mut rng = SplitRng::new(15);
        for len in [1usize, 7, 8, 17, 100] {
            let idx: Vec<u32> = (0..len as u32).filter(|_| rng.bernoulli(0.4)).collect();
            let vals: Vec<f32> = idx.iter().map(|_| rng.uniform(-1.0, 1.0)).collect();
            let mut dense = vec![0.0f32; len];
            for (&i, &v) in idx.iter().zip(&vals) {
                dense[i as usize] = v;
            }
            let y0: Vec<f32> = (0..len).map(|_| rng.uniform(-1.0, 1.0)).collect();
            for isa in [Some(Isa::Scalar), vector_isa()].into_iter().flatten() {
                let mut want = y0.clone();
                let mut got = y0.clone();
                axpy(isa, 0.7, &dense, &mut want);
                axpy_scatter(isa, 0.7, &idx, &vals, &mut got);
                assert_eq!(got, want, "{isa:?} len {len}");
            }
        }
    }

    #[test]
    fn adam_step_is_bitwise_vs_scalar() {
        let Some(isa) = vector_isa() else { return };
        let mut rng = SplitRng::new(15);
        let h = AdamLanes {
            beta1: 0.9,
            beta2: 0.999,
            weight_decay: 5e-4,
            lr: 0.01,
            eps: 1e-8,
            bias1: 1.0 - 0.9f64.powi(3),
            bias2: 1.0 - 0.999f64.powi(3),
        };
        for len in [1usize, 8, 11, 40] {
            let val0: Vec<f32> = (0..len).map(|_| rng.uniform(-1.0, 1.0)).collect();
            let m0: Vec<f32> = (0..len).map(|_| rng.uniform(-0.1, 0.1)).collect();
            let v0: Vec<f32> = (0..len).map(|_| rng.uniform(0.0, 0.1)).collect();
            let g: Vec<f32> = (0..len).map(|_| rng.uniform(-1.0, 1.0)).collect();
            for grad in [Some(g.as_slice()), None] {
                let (mut vs, mut ms, mut ss) = (val0.clone(), m0.clone(), v0.clone());
                let (mut vv, mut mv, mut sv) = (val0.clone(), m0.clone(), v0.clone());
                adam_step(Isa::Scalar, &mut vs, &mut ms, &mut ss, grad, &h);
                adam_step(isa, &mut vv, &mut mv, &mut sv, grad, &h);
                assert_eq!(vs, vv, "len {len}");
                assert_eq!(ms, mv);
                assert_eq!(ss, sv);
            }
        }
    }
}
