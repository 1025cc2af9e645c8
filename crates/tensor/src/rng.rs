//! Seeded randomness helpers.
//!
//! Every stochastic component in the workspace draws from a [`SplitRng`] so
//! experiments are reproducible end-to-end from a single `--seed`.
//!
//! The generator is an in-tree xoshiro256++ (Blackman & Vigna) seeded
//! through SplitMix64, so the workspace carries no external RNG dependency
//! and the stream is identical on every platform and toolchain.

use crate::matrix::Matrix;
use crate::simd::{self, Isa};
use std::sync::{Mutex, PoisonError};

/// SplitMix64 step: the recommended seeder for xoshiro state words.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded RNG that can deterministically `split` child RNGs, so
/// independent subsystems (graph generation, weight init, per-epoch masks)
/// do not perturb each other's streams when one of them changes.
///
/// Backed by xoshiro256++: 256 bits of state, period `2^256 - 1`, passes
/// BigCrush, and is a few instructions per draw.
///
/// `Clone` copies the full state: a cloned RNG replays the exact same
/// stream, which is how the sweep executor hands every grid configuration
/// an identical starting stream (matching the historical
/// fresh-`SplitRng::new(seed)`-per-config behavior) without re-deriving
/// shared preprocessing.
#[derive(Clone)]
pub struct SplitRng {
    s: [u64; 4],
}

impl SplitRng {
    /// New RNG from a seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Self { s }
    }

    /// Derive an independent child RNG. Advances this RNG by one draw.
    pub fn split(&mut self) -> SplitRng {
        SplitRng::new(self.next_u64())
    }

    /// Raw u64 draw.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        xoshiro_next(&mut self.s)
    }

    /// Uniform f64 in [0,1) with 53 bits of precision.
    #[inline]
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform f32 in [0,1) with 24 bits of precision.
    #[inline]
    pub fn unit_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }

    /// Uniform in `[lo, hi)`.
    #[inline]
    pub fn uniform(&mut self, lo: f32, hi: f32) -> f32 {
        lo + (hi - lo) * self.unit_f32()
    }

    /// Standard normal via Box–Muller.
    pub fn normal(&mut self) -> f32 {
        let u1: f64 = self.unit().max(1e-12);
        let u2: f64 = self.unit();
        ((-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()) as f32
    }

    /// Bernoulli draw: `true` with probability `p`. Equal to
    /// `self.unit() < p` for every `p` (see `bernoulli_threshold`).
    #[inline]
    pub fn bernoulli(&mut self, p: f64) -> bool {
        (self.next_u64() >> 11) < bernoulli_threshold(p)
    }

    /// Fill `out` with Bernoulli(`p`) flags: the same draws, in the same
    /// order, as calling [`SplitRng::bernoulli`] `out.len()` times. Each
    /// flag is an integer compare and a byte store, with no float select
    /// for the compiler to lower to a data-dependent branch. Long fills on
    /// AVX2 run as eight jumped-ahead generators (see `draw_lanes`); the
    /// flags and the final state are those of the serial loop.
    pub fn fill_bernoulli(&mut self, p: f64, out: &mut [bool]) {
        let threshold = bernoulli_threshold(p);
        let isa = simd::active();
        if isa == Isa::Avx2 && out.len() >= LANE_CUTOFF {
            let len = out.len();
            // SAFETY: `bool` is one byte whose valid values are 0 and 1, and
            // byte-per-flag lanes store only 0 and 1.
            let bytes = unsafe { &mut *(out as *mut [bool] as *mut [u8]) };
            self.draw_lanes::<8>(isa, threshold, len, bytes);
        } else {
            for o in out {
                *o = (self.next_u64() >> 11) < threshold;
            }
        }
    }

    /// The flags [`SplitRng::fill_bernoulli`] would draw over `len` values,
    /// kept only at `positions` (strictly ascending, each below `len`):
    /// `out[k]` is flag `positions[k]`. Advances the generator by all `len`
    /// draws, so it ends in the same state as after `fill_bernoulli`.
    ///
    /// # Panics
    /// Panics when `positions` is not strictly ascending, reaches `len`, or
    /// does not yield exactly `out.len()` positions.
    pub fn fill_bernoulli_at(
        &mut self,
        p: f64,
        len: usize,
        positions: impl IntoIterator<Item = usize>,
        out: &mut [bool],
    ) {
        let threshold = bernoulli_threshold(p);
        let isa = simd::active();
        if isa == Isa::Avx2 && len >= LANE_CUTOFF {
            self.bernoulli_at_lanes(isa, threshold, len, positions, out);
            return;
        }
        let mut drawn = 0;
        let mut k = 0;
        for pos in positions {
            assert!(
                pos >= drawn && pos < len,
                "positions must be strictly ascending and below len"
            );
            for _ in drawn..pos {
                self.next_u64();
            }
            out[k] = (self.next_u64() >> 11) < threshold;
            k += 1;
            drawn = pos + 1;
        }
        assert_eq!(k, out.len(), "one position per output flag");
        for _ in drawn..len {
            self.next_u64();
        }
    }

    /// `fill_bernoulli_at` on lanes: each [`AT_CHUNK`] draws go to a bitset
    /// through `draw_lanes`, and the positions inside the chunk read it.
    fn bernoulli_at_lanes(
        &mut self,
        isa: Isa,
        threshold: u64,
        len: usize,
        positions: impl IntoIterator<Item = usize>,
        out: &mut [bool],
    ) {
        const ORDER: &str = "positions must be strictly ascending and below len";
        let mut bits = [0u8; AT_CHUNK / 8];
        let mut positions = positions.into_iter().peekable();
        let mut k = 0;
        let mut next_allowed = 0;
        for begin in (0..len).step_by(AT_CHUNK) {
            let n = AT_CHUNK.min(len - begin);
            self.draw_lanes::<1>(isa, threshold, n, &mut bits);
            while let Some(pos) = positions.next_if(|&pos| pos < begin + n) {
                assert!(pos >= next_allowed, "{ORDER}");
                let i = pos - begin;
                out[k] = bits[i / 8] >> (i % 8) & 1 == 1;
                k += 1;
                next_allowed = pos + 1;
            }
        }
        assert!(positions.next().is_none(), "{ORDER}");
        assert_eq!(k, out.len(), "one position per output flag");
    }

    /// Draw `len` flags as [`LANES`] generators, each jumped ahead to its
    /// own contiguous stretch of this stream, and leave this generator
    /// where `len` serial draws would. Flag `i` goes to byte `i` of `out`
    /// (`FLAG_BITS = 8`) or to bit `i % 8` of byte `i / 8` (`FLAG_BITS =
    /// 1`).
    ///
    /// Lane `k` starts `k · lane` draws in, with `lane` the smallest
    /// multiple of a word's flags (`64 / FLAG_BITS`) no less than `len /
    /// LANES`, and stops where lane `k + 1` starts; lanes past `len` start
    /// at `len` and draw nothing, so the last lane always ends in the
    /// generator's final state. All lanes draw whole words together in
    /// [`simd::bernoulli_lanes`]; what is left of each stretch is drawn
    /// serially from that lane's state.
    fn draw_lanes<const FLAG_BITS: i32>(
        &mut self,
        isa: Isa,
        threshold: u64,
        len: usize,
        out: &mut [u8],
    ) {
        let per_word = 64 / FLAG_BITS as usize;
        let lane = len.div_ceil(LANES).next_multiple_of(per_word);
        let start = |k: usize| (k * lane).min(len);
        let mut lanes = lane_states(self.s, len, lane);
        let words = (len - start(LANES - 1)) / per_word;
        simd::bernoulli_lanes::<FLAG_BITS>(
            isa,
            &mut lanes,
            threshold,
            out,
            lane * FLAG_BITS as usize / 8,
            words,
        );
        for (k, s) in lanes.iter_mut().enumerate() {
            for i in start(k) + words * per_word..start(k + 1) {
                let flag = u8::from((xoshiro_next(s) >> 11) < threshold);
                if FLAG_BITS == 8 {
                    out[i] = flag;
                } else {
                    let bit = 1 << (i % 8);
                    out[i / 8] = out[i / 8] & !bit | flag << (i % 8);
                }
            }
        }
        self.s = lanes[LANES - 1];
    }

    /// Uniform integer in `[0, n)` (Lemire's multiply-shift, unbiased for
    /// the `n` used in this workspace up to a 2^-64 defect).
    #[inline]
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0)");
        (((self.next_u64() as u128) * (n as u128)) >> 64) as usize
    }

    /// Uniform integer in `[lo, hi]` (inclusive).
    #[inline]
    fn range_inclusive(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }

    /// Matrix with i.i.d. uniform entries.
    pub fn uniform_matrix(&mut self, rows: usize, cols: usize, lo: f32, hi: f32) -> Matrix {
        let mut m = Matrix::zeros(rows, cols);
        for v in m.as_mut_slice() {
            *v = self.uniform(lo, hi);
        }
        m
    }

    /// Matrix with i.i.d. `N(0, std²)` entries.
    pub fn normal_matrix(&mut self, rows: usize, cols: usize, std: f32) -> Matrix {
        let mut m = Matrix::zeros(rows, cols);
        for v in m.as_mut_slice() {
            *v = self.normal() * std;
        }
        m
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }

    /// Sample `k` distinct indices from `[0, n)` (k ≤ n), uniform without
    /// replacement, order unspecified.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot sample {k} of {n}");
        // Partial Fisher-Yates over an index array; O(n) setup is fine at
        // the graph sizes used here.
        let mut idx: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = self.range_inclusive(i, n - 1);
            idx.swap(i, j);
        }
        idx.truncate(k);
        idx
    }

    /// Weighted sample of `k` distinct indices, probability proportional to
    /// `weights` (the paper's biased / degree-proportional sampler).
    ///
    /// Uses the Efraimidis–Spirakis exponential-key trick: key_i =
    /// u_i^(1/w_i); take the k largest keys. Zero-weight items are never
    /// selected unless fewer than `k` positive-weight items exist.
    pub fn weighted_sample_indices(&mut self, weights: &[f64], k: usize) -> Vec<usize> {
        let n = weights.len();
        assert!(k <= n, "cannot sample {k} of {n}");
        let mut keyed: Vec<(f64, usize)> = weights
            .iter()
            .enumerate()
            .map(|(i, &w)| {
                let key = if w > 0.0 {
                    // ln(u)/w is a monotone transform of u^(1/w); avoids
                    // underflow for large weights.
                    let u: f64 = self.unit().max(f64::MIN_POSITIVE);
                    u.ln() / w
                } else {
                    f64::NEG_INFINITY
                };
                (key, i)
            })
            .collect();
        keyed.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("NaN sampling key"));
        keyed.into_iter().take(k).map(|(_, i)| i).collect()
    }
}

/// Integer threshold `t` with `k < t ⇔ k·2^-53 < p` for every 53-bit
/// draw `k`, so a Bernoulli draw needs no float arithmetic per element.
///
/// `unit()` returns `k·2^-53` with `k = next_u64() >> 11 < 2^53`. Both
/// `k·2^-53` and `p·2^53` are exact in `f64` (scaling by a power of two
/// only moves the exponent; `p·2^53` overflowing to `+inf` is still
/// correct below), so `k·2^-53 < p ⇔ k < p·2^53`, and for an integer `k`,
/// `k < y ⇔ k < ⌈y⌉`. The float-to-`u64` cast saturates: NaN and negative
/// rates give 0 (never true, like `unit() < p`), rates of 1 or more give
/// at least `2^53` (always true).
#[inline]
fn bernoulli_threshold(p: f64) -> u64 {
    (p * (1u64 << 53) as f64).ceil() as u64
}

/// One xoshiro256++ step: returns the draw and advances `s`.
#[inline]
pub(crate) fn xoshiro_next(s: &mut [u64; 4]) -> u64 {
    let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
    let t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = s[3].rotate_left(45);
    result
}

// ---------------------------------------------------------------------------
// Lane draws by jump-ahead
//
// xoshiro256's state transition T is linear over GF(2), so T^d equals
// q(T) for q = x^d mod P, where P is T's characteristic polynomial
// (Cayley–Hamilton), and q(T)·s is a sum of the states T^i·s for the set
// bits i of q. Vigna's `jump()` is the d = 2^128 case (Haramoto et al.,
// "Efficient Jump Ahead for F2-Linear Random Number Generators", INFORMS
// JoC 2008).
// ---------------------------------------------------------------------------

/// Generators a long fill is split into: two AVX2 registers of four
/// 64-bit xoshiro state words each.
const LANES: usize = 8;

/// Fills shorter than this draw serially. The lanes' fixed cost is one
/// 256-step jump pass (about 1.5 µs); on a 2-vCPU AVX2 host they break even
/// with the serial loop near 2,048 draws and win by a third at 4,096. The
/// 2,708-flag skip masks of Cora stay serial.
const LANE_CUTOFF: usize = 1 << 12;

/// `fill_bernoulli_at` draws this many flags at a time into a stack bitset
/// of `AT_CHUNK / 8` bytes, so its scratch does not grow with `len`.
const AT_CHUNK: usize = 1 << 18;

/// Distinct lane splits whose jump polynomials are kept.
const JUMP_CACHE: usize = 16;

/// A GF(2) polynomial of degree below 256: the coefficient of `x^i` is bit
/// `i % 64` of word `i / 64`.
type Poly = [u64; 4];

/// The characteristic polynomial of xoshiro256's state transition, less
/// its `x^256` term. `tests::char_poly_is_the_minimal_polynomial` derives
/// it from the generator by Berlekamp–Massey.
const CHAR_POLY: Poly = [
    0x9d11_6f2b_b0f0_f001,
    0x0280_002b_cefd_1a5e,
    0x04b4_edcf_2625_9f85,
    0x0003_c03c_3f3e_cb19,
];

/// `wide ^= p · x^shift`, for `shift < 256`.
fn xor_shifted(wide: &mut [u64; 8], p: &Poly, shift: usize) {
    let (w, b) = (shift / 64, shift % 64);
    for (j, &v) in p.iter().enumerate() {
        wide[w + j] ^= v << b;
        if b > 0 {
            wide[w + j + 1] ^= v >> (64 - b);
        }
    }
}

/// A product of degree below 512, reduced mod P.
fn reduce(mut wide: [u64; 8]) -> Poly {
    for i in (256..512).rev() {
        if wide[i / 64] >> (i % 64) & 1 == 1 {
            // x^i = x^(i-256)·(P + CHAR_POLY); the xor only touches bits
            // below i, since CHAR_POLY has degree below 256.
            wide[i / 64] ^= 1 << (i % 64);
            xor_shifted(&mut wide, &CHAR_POLY, i - 256);
        }
    }
    [wide[0], wide[1], wide[2], wide[3]]
}

/// `a · b mod P`.
fn mul_mod(a: &Poly, b: &Poly) -> Poly {
    let mut wide = [0u64; 8];
    for i in 0..256 {
        if a[i / 64] >> (i % 64) & 1 == 1 {
            xor_shifted(&mut wide, b, i);
        }
    }
    reduce(wide)
}

/// `a² mod P`: squaring over GF(2) spreads bit `i` to bit `2i`.
fn sqr_mod(a: &Poly) -> Poly {
    fn spread(half: u64) -> u64 {
        let mut x = half & 0xffff_ffff;
        x = (x | x << 16) & 0x0000_ffff_0000_ffff;
        x = (x | x << 8) & 0x00ff_00ff_00ff_00ff;
        x = (x | x << 4) & 0x0f0f_0f0f_0f0f_0f0f;
        x = (x | x << 2) & 0x3333_3333_3333_3333;
        (x | x << 1) & 0x5555_5555_5555_5555
    }
    let mut wide = [0u64; 8];
    for (j, &v) in a.iter().enumerate() {
        wide[2 * j] = spread(v);
        wide[2 * j + 1] = spread(v >> 32);
    }
    reduce(wide)
}

/// `x^d mod P`, by left-to-right square-and-multiply.
fn x_pow_mod(d: usize) -> Poly {
    let mut q: Poly = [1, 0, 0, 0];
    for bit in (0..usize::BITS - d.leading_zeros()).rev() {
        q = sqr_mod(&q);
        if d >> bit & 1 == 1 {
            // Times x: shift up one bit; a carry into x^256 becomes P's rest.
            let carry = q[3] >> 63;
            q = [
                q[0] << 1,
                q[1] << 1 | q[0] >> 63,
                q[2] << 1 | q[1] >> 63,
                q[3] << 1 | q[2] >> 63,
            ];
            if carry == 1 {
                for (w, c) in q.iter_mut().zip(&CHAR_POLY) {
                    *w ^= c;
                }
            }
        }
    }
    q
}

/// The states `polys[j](T)·s`, all from one walk over `T^0·s … T^255·s`.
fn apply_jumps<const N: usize>(s: [u64; 4], polys: &[Poly; N]) -> [[u64; 4]; N] {
    let mut out = [[0u64; 4]; N];
    let mut cur = s;
    for i in 0..256 {
        for (acc, q) in out.iter_mut().zip(polys) {
            if q[i / 64] >> (i % 64) & 1 == 1 {
                for (a, c) in acc.iter_mut().zip(&cur) {
                    *a ^= c;
                }
            }
        }
        xoshiro_next(&mut cur);
    }
    out
}

/// Jump polynomials `x^min(k·lane, len) mod P` for `k = 1..LANES` of the
/// recent `(len, lane)` splits, oldest first.
type JumpEntry = ((usize, usize), [Poly; LANES - 1]);
static JUMPS: Mutex<Vec<JumpEntry>> = Mutex::new(Vec::new());

/// The start states of the lanes of a `len`-draw fill split every `lane`
/// draws: lane `k` is `s` advanced `min(k · lane, len)` draws.
fn lane_states(s: [u64; 4], len: usize, lane: usize) -> [[u64; 4]; LANES] {
    let polys = {
        // Every update leaves the cache a valid list of entries, so a
        // panic elsewhere while it was held does not corrupt it.
        let mut cache = JUMPS.lock().unwrap_or_else(PoisonError::into_inner);
        match cache.iter().find(|(key, _)| *key == (len, lane)) {
            Some(&(_, polys)) => polys,
            None => {
                let step = x_pow_mod(lane);
                let mut q: Poly = [1, 0, 0, 0];
                let mut polys = [q; LANES - 1];
                for (k, p) in (1..).zip(&mut polys) {
                    if k * lane <= len {
                        q = mul_mod(&q, &step);
                    } else if (k - 1) * lane < len {
                        q = x_pow_mod(len);
                    }
                    *p = q;
                }
                if cache.len() == JUMP_CACHE {
                    cache.remove(0);
                }
                cache.push(((len, lane), polys));
                polys
            }
        }
    };
    let jumped = apply_jumps(s, &polys);
    let mut lanes = [s; LANES];
    lanes[1..].copy_from_slice(&jumped);
    lanes
}

/// Uniform `f32` in `[lo, hi)`.
pub fn uniform_f32(rng: &mut SplitRng, lo: f32, hi: f32) -> f32 {
    rng.uniform(lo, hi)
}

/// Standard-normal `f32` via Box–Muller.
pub fn normal_f32(rng: &mut SplitRng) -> f32 {
    rng.normal()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_from_seed() {
        let mut a = SplitRng::new(42);
        let mut b = SplitRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn split_streams_are_independent_of_parent_usage() {
        let mut a = SplitRng::new(9);
        let child_seed_first = a.split().next_u64();
        let mut b = SplitRng::new(9);
        let child_seed_second = b.split().next_u64();
        assert_eq!(child_seed_first, child_seed_second);
    }

    #[test]
    fn unit_is_in_half_open_interval() {
        let mut rng = SplitRng::new(7);
        for _ in 0..10_000 {
            let u = rng.unit();
            assert!((0.0..1.0).contains(&u), "unit out of range: {u}");
            let uf = rng.unit_f32();
            assert!((0.0..1.0).contains(&uf), "unit_f32 out of range: {uf}");
        }
    }

    #[test]
    fn below_covers_small_ranges_uniformly() {
        let mut rng = SplitRng::new(8);
        let mut counts = [0usize; 5];
        let trials = 50_000;
        for _ in 0..trials {
            counts[rng.below(5)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            let expect = trials / 5;
            assert!(
                (c as i64 - expect as i64).unsigned_abs() < expect as u64 / 10,
                "bucket {i} count {c} vs expected {expect}"
            );
        }
    }

    #[test]
    fn normal_mean_and_variance_are_sane() {
        let mut rng = SplitRng::new(1);
        let n = 20_000;
        let samples: Vec<f32> = (0..n).map(|_| rng.normal()).collect();
        let mean: f64 = samples.iter().map(|&x| x as f64).sum::<f64>() / n as f64;
        let var: f64 = samples
            .iter()
            .map(|&x| (x as f64 - mean).powi(2))
            .sum::<f64>()
            / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.08, "var {var}");
    }

    #[test]
    fn sample_indices_distinct_and_in_range() {
        let mut rng = SplitRng::new(2);
        let s = rng.sample_indices(50, 20);
        assert_eq!(s.len(), 20);
        let mut sorted = s.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 20);
        assert!(s.iter().all(|&i| i < 50));
    }

    #[test]
    fn weighted_sampling_never_picks_zero_weight() {
        let mut rng = SplitRng::new(3);
        let weights = [0.0, 5.0, 0.0, 1.0, 3.0];
        for _ in 0..50 {
            let s = rng.weighted_sample_indices(&weights, 3);
            assert!(
                !s.contains(&0) && !s.contains(&2),
                "picked zero weight: {s:?}"
            );
        }
    }

    #[test]
    fn weighted_sampling_prefers_heavy_items() {
        let mut rng = SplitRng::new(4);
        let weights = [1.0, 100.0, 1.0, 1.0];
        let mut hits = 0;
        let trials = 500;
        for _ in 0..trials {
            if rng.weighted_sample_indices(&weights, 1)[0] == 1 {
                hits += 1;
            }
        }
        assert!(
            hits > trials * 8 / 10,
            "heavy item picked only {hits}/{trials}"
        );
    }

    /// `fill_bernoulli` and `bernoulli` make exactly the draws of the
    /// float comparison `unit() < p`, edge and invalid rates included,
    /// and leave the generator in the same state.
    #[test]
    fn bernoulli_draws_equal_the_float_comparison() {
        let rates = [
            0.0,
            (-60f64).exp2(),
            1e-9,
            0.25,
            0.5,
            0.9,
            1.0f64.next_down(),
            1.0,
            f64::NAN,
            -0.25,
        ];
        let n = 10_000;
        for p in rates {
            let mut reference = SplitRng::new(11);
            let mut single = reference.clone();
            let mut filled = reference.clone();
            let want: Vec<bool> = (0..n).map(|_| reference.unit() < p).collect();
            let got_single: Vec<bool> = (0..n).map(|_| single.bernoulli(p)).collect();
            let mut got_filled = vec![false; n];
            filled.fill_bernoulli(p, &mut got_filled);
            assert_eq!(got_single, want, "bernoulli({p}) differs from unit() < p");
            assert_eq!(
                got_filled, want,
                "fill_bernoulli({p}) differs from unit() < p"
            );
            let next = reference.next_u64();
            assert_eq!(single.next_u64(), next, "bernoulli({p}) moved the stream");
            assert_eq!(
                filled.next_u64(),
                next,
                "fill_bernoulli({p}) moved the stream"
            );
        }
    }

    /// `fill_bernoulli_at` equals `fill_bernoulli` followed by a gather at
    /// the positions, and leaves the generator in the same state.
    #[test]
    fn bernoulli_at_positions_equals_fill_then_gather() {
        let len = 1_000;
        let mut picker = SplitRng::new(3);
        let mut positions: Vec<usize> = (0..len).filter(|_| picker.bernoulli(0.1)).collect();
        positions.extend([len - 1]);
        positions.dedup();
        for p in [0.0, 0.5, 0.9] {
            for pos in [&positions[..], &[], &[0]] {
                let mut reference = SplitRng::new(19);
                let mut gathered = reference.clone();
                let mut all = vec![false; len];
                reference.fill_bernoulli(p, &mut all);
                let want: Vec<bool> = pos.iter().map(|&i| all[i]).collect();
                let mut got = vec![true; pos.len()];
                gathered.fill_bernoulli_at(p, len, pos.iter().copied(), &mut got);
                assert_eq!(got, want, "fill_bernoulli_at({p}) differs from the gather");
                assert_eq!(
                    gathered.next_u64(),
                    reference.next_u64(),
                    "fill_bernoulli_at({p}) left a different state"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn bernoulli_at_rejects_unsorted_positions() {
        let mut out = [false; 2];
        SplitRng::new(1).fill_bernoulli_at(0.5, 10, [4, 2], &mut out);
    }

    /// The first 128 dropout flags at seed 7, p = 0.5, bit `i` of word
    /// `i / 64` being flag `i`. A faster draw must keep this stream.
    #[test]
    fn bernoulli_stream_is_pinned() {
        let mut flags = [false; 128];
        SplitRng::new(7).fill_bernoulli(0.5, &mut flags);
        let mut words = [0u64; 2];
        for (i, &f) in flags.iter().enumerate() {
            words[i / 64] |= u64::from(f) << (i % 64);
        }
        assert_eq!(words, [0x5b15_dc14_be27_eeab, 0xe38a_07e5_95f6_d02e]);
    }

    /// Berlekamp–Massey over GF(2): the connection polynomial `c` (with
    /// `c[0] = 1`) of the shortest recurrence `a[n] = Σ c[i]·a[n-i]`.
    fn berlekamp_massey(a: &[bool]) -> Vec<bool> {
        let n = a.len();
        let mut c = vec![false; n + 1];
        c[0] = true;
        let mut b = c.clone();
        let (mut l, mut m) = (0, 1);
        for i in 0..n {
            let d = (1..=l).fold(a[i], |d, j| d ^ (c[j] & a[i - j]));
            if !d {
                m += 1;
                continue;
            }
            let prev = c.clone();
            for j in 0..=n - m {
                c[j + m] ^= b[j];
            }
            if 2 * l <= i {
                l = i + 1 - l;
                b = prev;
                m = 1;
            } else {
                m += 1;
            }
        }
        c.truncate(l + 1);
        c
    }

    /// Any state bit follows the transition's minimal polynomial, which
    /// for a full-period generator is its characteristic polynomial.
    #[test]
    fn char_poly_is_the_minimal_polynomial() {
        let mut s = SplitRng::new(1).s;
        let bits: Vec<bool> = (0..512)
            .map(|_| {
                let bit = s[0] & 1 == 1;
                xoshiro_next(&mut s);
                bit
            })
            .collect();
        let c = berlekamp_massey(&bits);
        assert_eq!(c.len(), 257, "degree 256");
        let mut derived: Poly = [0; 4];
        for j in 0..256 {
            derived[j / 64] |= u64::from(c[256 - j]) << (j % 64);
        }
        assert_eq!(derived, CHAR_POLY);
    }

    /// `x^(2^128)` and `x^(2^192)` mod P are Vigna's published xoshiro256
    /// `JUMP` and `LONG_JUMP` words, and `x^(2^256) ≡ x`.
    #[test]
    fn char_poly_reproduces_vigna_jumps() {
        const JUMP: Poly = [
            0x180e_c6d3_3cfd_0aba,
            0xd5a6_1266_f0c9_392c,
            0xa958_2618_e03f_c9aa,
            0x39ab_dc45_29b1_661c,
        ];
        const LONG_JUMP: Poly = [
            0x76e1_5d3e_fefd_cbbf,
            0xc500_4e44_1c52_2fb3,
            0x7771_0069_854e_e241,
            0x3910_9bb0_2acb_e635,
        ];
        let x: Poly = [2, 0, 0, 0];
        let mut q = x;
        for _ in 0..128 {
            q = sqr_mod(&q);
        }
        assert_eq!(q, JUMP);
        for _ in 0..64 {
            q = sqr_mod(&q);
        }
        assert_eq!(q, LONG_JUMP);
        for _ in 0..64 {
            q = sqr_mod(&q);
        }
        assert_eq!(q, x);
    }

    #[test]
    fn jump_equals_serial_steps() {
        for d in [0, 1, 63, 64, 255, 256, 257, 1_000_003] {
            let mut serial = SplitRng::new(23);
            let start = serial.s;
            for _ in 0..d {
                serial.next_u64();
            }
            let [jumped] = apply_jumps(start, &[x_pow_mod(d)]);
            assert_eq!(jumped, serial.s, "jump by {d}");
            assert_eq!(
                mul_mod(&x_pow_mod(d), &x_pow_mod(12_345)),
                x_pow_mod(d + 12_345),
                "x^{d} · x^12345"
            );
        }
    }

    /// The ISAs this host runs.
    fn host_isas() -> impl Iterator<Item = Isa> {
        [Isa::Scalar, Isa::Avx2, Isa::Neon]
            .into_iter()
            .filter(|&isa| simd::supported(isa))
    }

    /// The edge rates, plus `+∞`, whose threshold does not fit an `i64`.
    const LANE_RATES: [f64; 9] = [
        0.0,
        1.0 / (1u64 << 60) as f64,
        0.5,
        0.9,
        1.0 - f64::EPSILON,
        1.0,
        f64::NAN,
        -0.25,
        f64::INFINITY,
    ];

    /// Lane draws, called directly and so at every length, equal the
    /// serial loop: the same flags and the same next draw.
    #[test]
    fn lane_draws_equal_serial_draws() {
        let lengths = (0..=1_000).chain([
            LANE_CUTOFF - 1,
            LANE_CUTOFF,
            LANE_CUTOFF + 1,
            173_312,
            3_880_564,
        ]);
        for len in lengths {
            for p in LANE_RATES {
                let mut serial = SplitRng::new(len as u64);
                let want: Vec<u8> = (0..len).map(|_| u8::from(serial.bernoulli(p))).collect();
                let next = serial.next_u64();
                for isa in host_isas() {
                    let mut lanes = SplitRng::new(len as u64);
                    let mut got = vec![7u8; len];
                    lanes.draw_lanes::<8>(isa, bernoulli_threshold(p), len, &mut got);
                    assert!(got == want, "{isa:?} len {len} p {p}: flags differ");
                    assert_eq!(lanes.next_u64(), next, "{isa:?} len {len} p {p}: state");
                }
            }
        }
    }

    /// `fill_bernoulli_at`'s lane path equals its serial path for empty,
    /// first-only, last-only and dense position sets, across chunks.
    #[test]
    fn lane_draws_at_positions_equal_serial_draws() {
        for len in [
            1,
            2,
            999,
            LANE_CUTOFF,
            AT_CHUNK - 1,
            AT_CHUNK + 65,
            2 * AT_CHUNK + 3,
        ] {
            let mut picker = SplitRng::new(len as u64);
            let sets: [Vec<usize>; 5] = [
                vec![],
                vec![0],
                vec![len - 1],
                (0..len).collect(),
                (0..len).filter(|_| picker.bernoulli(0.05)).collect(),
            ];
            for positions in &sets {
                for p in LANE_RATES {
                    let mut serial = SplitRng::new(3);
                    let all: Vec<bool> = (0..len).map(|_| serial.bernoulli(p)).collect();
                    let want: Vec<bool> = positions.iter().map(|&i| all[i]).collect();
                    let next = serial.next_u64();
                    for isa in host_isas() {
                        let mut lanes = SplitRng::new(3);
                        let mut got = vec![false; positions.len()];
                        let threshold = bernoulli_threshold(p);
                        lanes.bernoulli_at_lanes(
                            isa,
                            threshold,
                            len,
                            positions.iter().copied(),
                            &mut got,
                        );
                        let what = format!("{isa:?} len {len} p {p} {} positions", positions.len());
                        assert!(got == want, "{what}: flags differ");
                        assert_eq!(lanes.next_u64(), next, "{what}: state");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn lane_draws_at_reject_unsorted_positions() {
        let mut out = [false; 2];
        SplitRng::new(1).bernoulli_at_lanes(Isa::Scalar, 1 << 52, 10, [4, 2], &mut out);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SplitRng::new(5);
        let mut v: Vec<usize> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }
}
