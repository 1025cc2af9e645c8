//! Seeded randomness helpers.
//!
//! Every stochastic component in the workspace draws from a [`SplitRng`] so
//! experiments are reproducible end-to-end from a single `--seed`.
//!
//! The generator is an in-tree xoshiro256++ (Blackman & Vigna) seeded
//! through SplitMix64, so the workspace carries no external RNG dependency
//! and the stream is identical on every platform and toolchain.

use crate::matrix::Matrix;

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
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
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
    /// for the compiler to lower to a data-dependent branch.
    pub fn fill_bernoulli(&mut self, p: f64, out: &mut [bool]) {
        let threshold = bernoulli_threshold(p);
        for o in out {
            *o = (self.next_u64() >> 11) < threshold;
        }
    }

    /// The flags [`SplitRng::fill_bernoulli`] would draw over `len` values,
    /// kept only at `positions` (strictly ascending, each below `len`):
    /// `out[k]` is flag `positions[k]`. Makes all `len` draws, so the
    /// generator ends in the same state as after `fill_bernoulli`.
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
