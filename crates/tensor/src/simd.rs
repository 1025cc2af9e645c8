//! Runtime-dispatched SIMD inner kernels.
//!
//! Every hot loop in the stack funnels through a handful of primitives in
//! this module: the GEMM register microkernel, the feature-dimension axpy
//! used by SpMM and `Aᵀ·B`, the dot chains of `A·Bᵀ`, the elementwise
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
//!   The GEMM microkernel, the SpMM axpy, and `Aᵀ·B` accumulate each output
//!   element in the exact scalar index order (`p = 0..k`, neighbors in CSR
//!   order); lanes hold *different* output columns, never partial sums of
//!   the same element. Zero-skip (`fma(0, x, acc) == acc` for finite `x`)
//!   stays exact.
//! - **The SIMD path uses fused multiply-add uniformly** — vector FMA in
//!   the lane loops and `f32::mul_add` in every remainder loop — so a given
//!   element's bits are invariant to where tile/lane boundaries fall. SIMD
//!   results therefore differ from the scalar reference only by FMA's
//!   skipped intermediate rounding, pinned by tolerance-gated tests.
//! - **Bitwise-class kernels avoid FMA entirely.** `add_scaled`, `relu`,
//!   and the Adam step use plain mul/add/max lanes that round exactly like
//!   the scalar reference, so they stay bit-identical to it on every ISA
//!   (the `-0.0 < +0.0` ReLU edge noted on [`relu`] aside).
//! - **Reductions that fold lanes** (`dot`, [`sum_sq_f64`]) combine partial
//!   sums in a fixed order, so they are deterministic per ISA but
//!   tolerance-class versus scalar.
//!
//! The scalar kernels in the `gemm` module and friends are untouched and
//! remain the bitwise reference; `SKIPNODE_SIMD=off` reproduces pre-SIMD
//! results byte-for-byte.

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

/// `y[i] = alpha * x[i] + y[i]`. This is the inner axpy of SpMM's neighbor
/// accumulation and `Aᵀ·B`'s streaming update: each `y[i]` is one output
/// element, so repeated calls accumulate every element in the caller's
/// (scalar) order. Vector ISAs use FMA lanes (tolerance-class); the
/// [`Isa::Scalar`] path is the plain `y += alpha * x` reference loop,
/// bit-identical to the pre-SIMD kernels.
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

/// Four simultaneous dot products of `x` against `ys[0..4]` (the `A·Bᵀ`
/// microkernel: one pass over `x` serves four output columns).
pub fn dot4(isa: Isa, x: &[f32], ys: [&[f32]; 4]) -> [f32; 4] {
    #[cfg(target_arch = "x86_64")]
    if isa == Isa::Avx2 {
        // SAFETY: see `axpy`.
        return unsafe { dot4_avx2(x, ys) };
    }
    [
        dot(isa, x, ys[0]),
        dot(isa, x, ys[1]),
        dot(isa, x, ys[2]),
        dot(isa, x, ys[3]),
    ]
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
/// block `out`, in 4×16 register tiles. Per-element accumulation order is
/// `p = 0..k` with exact zero-skip, so the serial/pooled split produces
/// identical bytes; versus the scalar reference the only difference is FMA
/// contraction.
pub fn gemm_rows(
    isa: Isa,
    a: &Matrix,
    b: &Matrix,
    out: &mut [f32],
    row_begin: usize,
    row_end: usize,
) {
    #[cfg(target_arch = "x86_64")]
    if isa == Isa::Avx2 {
        // SAFETY: see `axpy`.
        unsafe { gemm_rows_avx2(a, b, out, row_begin, row_end) };
        return;
    }
    #[cfg(target_arch = "aarch64")]
    if isa == Isa::Neon {
        // SAFETY: NEON is baseline on aarch64.
        unsafe { gemm_rows_neon(a, b, out, row_begin, row_end) };
        return;
    }
    let _ = isa;
    gemm_rows_portable(a, b, out, row_begin, row_end);
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

/// In-place ReLU. Bit-identical to `x.max(0.0)` for every input except
/// `-0.0`, where the vector max returns `+0.0` (the scalar `f32::max` may
/// keep the sign). The stack never produces `-0.0` pre-activations — exact
/// zeros come from zero-skip, which yields `+0.0` — so the paths agree on
/// real data; tests simply avoid `-0.0` inputs.
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
        *v = v.max(0.0);
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
    use super::{AdamLanes, Matrix};
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
    pub unsafe fn dot4_avx2(x: &[f32], ys: [&[f32]; 4]) -> [f32; 4] {
        let n = x.len();
        let mut acc = [_mm256_setzero_ps(); 4];
        let mut i = 0;
        while i + 8 <= n {
            let xv = _mm256_loadu_ps(x.as_ptr().add(i));
            for (a, yrow) in acc.iter_mut().zip(&ys) {
                *a = _mm256_fmadd_ps(xv, _mm256_loadu_ps(yrow.as_ptr().add(i)), *a);
            }
            i += 8;
        }
        let mut tail = [0.0f32; 4];
        while i < n {
            let xv = *x.get_unchecked(i);
            for (t, yrow) in tail.iter_mut().zip(&ys) {
                *t = xv.mul_add(*yrow.get_unchecked(i), *t);
            }
            i += 1;
        }
        let mut out = [0.0f32; 4];
        for j in 0..4 {
            out[j] = hsum(acc[j]) + tail[j];
        }
        out
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
            *v = v.max(0.0);
            i += 1;
        }
    }

    /// Register-tiled GEMM rows: `MR = 4` output rows × `NU = 2` 8-lane
    /// column vectors per tile. Accumulation over `p` is in scalar order
    /// with the same all-rows-zero skip as the scalar kernel, so the tile
    /// and remainder paths agree bitwise.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn gemm_rows_avx2(
        a: &Matrix,
        b: &Matrix,
        out: &mut [f32],
        row_begin: usize,
        row_end: usize,
    ) {
        const MR: usize = 4;
        const NU: usize = 2;
        let k = a.cols();
        let n = b.cols();
        let bd = b.as_slice();
        let nr = NU * 8;
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
                    let mut acc = [[_mm256_setzero_ps(); NU]; MR];
                    for p in 0..k {
                        let avals: [f32; MR] = std::array::from_fn(|r| *a_ptrs[r].add(p));
                        if avals == [0.0; MR] {
                            continue;
                        }
                        let bp = bd.as_ptr().add(p * n + jt);
                        let bv: [__m256; NU] =
                            std::array::from_fn(|u| _mm256_loadu_ps(bp.add(u * 8)));
                        for (accr, &ar) in acc.iter_mut().zip(&avals) {
                            let av = _mm256_set1_ps(ar);
                            for (o, &bvu) in accr.iter_mut().zip(&bv) {
                                *o = _mm256_fmadd_ps(av, bvu, *o);
                            }
                        }
                    }
                    for (r, accr) in acc.iter().enumerate() {
                        let optr = out.as_mut_ptr().add((i + r) * n + jt);
                        for (u, &o) in accr.iter().enumerate() {
                            _mm256_storeu_ps(optr.add(u * 8), o);
                        }
                    }
                } else {
                    // Remainder: same per-element order, mul_add to stay
                    // FMA-consistent with the tile path.
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
    adam_step_avx2, add_scaled_avx2, axpy_avx2, axpy_scatter_avx2, bernoulli_lanes_avx2, dot4_avx2,
    dot_avx2, gemm_rows_avx2, relu_avx2, sum_sq_f64_avx2,
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
