//! The register-tiled AVX2 GEMM kernels against the kernels they replaced,
//! kept here as references, by bits: no tolerance.
//!
//! - `A·B` against the 4×16 tile that tested each `p`'s window of `A` with
//!   a branch (per-element skip in the remainder rows and columns);
//! - `Aᵀ·B` against the row-axpy stream that skipped each zero entry;
//! - `A·Bᵀ` against four dot chains per row, each folded with a store and
//!   seven scalar adds.
//!
//! Every element sums the same terms in the same order with FMA, and a
//! skipped term is `fma(±0, x, acc) == acc` for finite `x`, so the bits
//! must agree on the finite operands used here.
//!
//! Also by bits: `Aᵀ·B` over row counts around its 64-row block, with
//! fully live blocks (walked by pointer increments) alternating with
//! blocks that hold all-zero windows (walked from a live-row list) in one
//! call; and the bias/ReLU epilogue of `matmul_with_into` against
//! `matmul` followed by `add_bias_in_place` and `relu_in_place`, on both
//! the AVX2 and the scalar kernels, with `-0.0`, NaN, ±inf and subnormal
//! products and biases and a masked last column tile. The products run through
//! the public `Matrix` API, so they take the pooled split; the check runs
//! in child processes under `SKIPNODE_THREADS` of 1 to 4 (the pool reads
//! the variable once per process). Hosts without AVX2+FMA skip it.
#![cfg(target_arch = "x86_64")]

use skipnode_tensor::simd::{self, Isa};
use skipnode_tensor::{add_bias_in_place, relu_in_place, Epilogue, Matrix, SplitRng};

mod reference {
    use skipnode_tensor::simd::{self, Isa};
    use skipnode_tensor::Matrix;
    use std::arch::x86_64::*;

    /// The former `gemm_rows_avx2`: 4×16 tiles, a branch per `p` on the
    /// window, per-element skip in the remainders.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn gemm_rows_branchy(a: &Matrix, b: &Matrix, out: &mut [f32]) {
        const MR: usize = 4;
        const NU: usize = 2;
        let k = a.cols();
        let n = b.cols();
        let bd = b.as_slice();
        let nr = NU * 8;
        let rows = a.rows();
        let mut i = 0;
        while i < rows {
            let mr = MR.min(rows - i);
            let mut jt = 0;
            while jt < n {
                let w = nr.min(n - jt);
                if mr == MR && w == nr {
                    let a_ptrs: [*const f32; MR] = std::array::from_fn(|r| a.row(i + r).as_ptr());
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
                    let mut acc = [0.0f32; 16];
                    for r in 0..mr {
                        acc[..w].fill(0.0);
                        for (p, &ap) in a.row(i + r).iter().enumerate() {
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

    pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        // SAFETY: callers check AVX2+FMA first; `out` is `a.rows × b.cols`.
        unsafe { gemm_rows_branchy(a, b, out.as_mut_slice()) };
        out
    }

    /// The former `at_b_rows_simd`: `out[p] += a[r, p] · b[r]` through the
    /// AVX2 `axpy`, rows ascending, zero entries skipped.
    pub fn t_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let n = b.cols();
        let mut out = Matrix::zeros(a.cols(), n);
        let o = out.as_mut_slice();
        for r in 0..a.rows() {
            for (p, &ap) in a.row(r).iter().enumerate() {
                if ap == 0.0 {
                    continue;
                }
                simd::axpy(Isa::Avx2, ap, b.row(r), &mut o[p * n..(p + 1) * n]);
            }
        }
        out
    }

    /// `((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))` through a store.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn hsum(v: __m256) -> f32 {
        let mut lanes = [0.0f32; 8];
        _mm256_storeu_ps(lanes.as_mut_ptr(), v);
        ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
            + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]))
    }

    /// The former `dot4_avx2`.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn dot4(x: &[f32], ys: [&[f32]; 4]) -> [f32; 4] {
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
            let xv = x[i];
            for (t, yrow) in tail.iter_mut().zip(&ys) {
                *t = xv.mul_add(yrow[i], *t);
            }
            i += 1;
        }
        let mut out = [0.0f32; 4];
        for j in 0..4 {
            out[j] = hsum(acc[j]) + tail[j];
        }
        out
    }

    /// The former `a_bt_rows_simd`: `dot4` per four columns, `dot` for the
    /// rest.
    pub fn matmul_t(a: &Matrix, b: &Matrix) -> Matrix {
        let n = b.rows();
        let mut out = Matrix::zeros(a.rows(), n);
        for r in 0..a.rows() {
            let a_row = a.row(r);
            let out_row = out.row_mut(r);
            let mut j = 0;
            while j + 4 <= n {
                let ys = [b.row(j), b.row(j + 1), b.row(j + 2), b.row(j + 3)];
                // SAFETY: callers check AVX2+FMA first; rows share `a.cols`.
                out_row[j..j + 4].copy_from_slice(&unsafe { dot4(a_row, ys) });
                j += 4;
            }
            for (jj, o) in out_row.iter_mut().enumerate().skip(j) {
                *o = simd::dot(Isa::Avx2, a_row, b.row(jj));
            }
        }
        out
    }
}

/// An `rows × cols` operand with about `zeros` of its entries exactly zero
/// (half of them `-0.0`), the rest uniform in `[-2, 2)`.
fn sparse_operand(rng: &mut SplitRng, rows: usize, cols: usize, zeros: f64) -> Matrix {
    let mut m = Matrix::zeros(rows, cols);
    for v in m.as_mut_slice() {
        *v = if rng.bernoulli(zeros) {
            if rng.bernoulli(0.5) {
                -0.0
            } else {
                0.0
            }
        } else {
            rng.uniform(-2.0, 2.0)
        };
    }
    m
}

/// Zero out every fourth run of four rows and the column band `[3, 11)`,
/// so all-zero windows occur at every density.
fn carve_zero_windows(m: &mut Matrix) {
    for r in 0..m.rows() {
        let blank_row = (r / 4) % 4 == 1;
        for (c, v) in m.row_mut(r).iter_mut().enumerate() {
            if blank_row || (3..11).contains(&c) {
                *v = if (r + c) % 2 == 0 { 0.0 } else { -0.0 };
            }
        }
    }
}

fn assert_same_bits(got: &Matrix, want: &Matrix, label: &str) {
    assert_eq!(got.shape(), want.shape(), "{label}: shape");
    let differ = got
        .as_slice()
        .iter()
        .zip(want.as_slice())
        .filter(|(x, y)| x.to_bits() != y.to_bits())
        .count();
    let first = got
        .as_slice()
        .iter()
        .zip(want.as_slice())
        .position(|(x, y)| x.to_bits() != y.to_bits());
    assert_eq!(
        differ,
        0,
        "{label}: {differ} elements differ, first at {first:?}: {:?} vs {:?}",
        first.map(|i| got.as_slice()[i]),
        first.map(|i| want.as_slice()[i]),
    );
}

/// `(m, k, n)` shapes: `A` is `m × k` for `A·B` and `A·Bᵀ`; `Aᵀ·B` takes
/// `A` as `m × k` and `B` as `m × n`. They cross the 4-row block, the
/// 16-column tile (full, over 8 and under 8 wide), the 256-row block of
/// `Aᵀ·B`, the pool's chunks (above 64³ multiply-adds; 16 chunks of 33 or
/// 38 rows under four threads) and every `k % 8`. `Aᵀ·B` splits its `k`
/// output rows into one chunk per thread; the last three shapes have a `k`
/// that neither two nor three threads divide evenly.
const SHAPES: &[(usize, usize, usize)] = &[
    (1, 1, 1),
    (3, 0, 5),
    (0, 4, 3),
    (4, 16, 16),
    (5, 7, 9),
    (6, 8, 24),
    (9, 13, 33),
    (64, 64, 64),
    (257, 9, 16),
    (301, 67, 43),
    (517, 70, 45),
    (600, 70, 37),
    (130, 1433, 7),
    (333, 97, 40),
    (700, 131, 20),
    (260, 1001, 3),
];

/// An `m × k` operand, dense in its 64-row blocks of even index; odd
/// blocks zero one 4-wide window in some rows (block 1 in every row,
/// others in every third row), so within one `Aᵀ·B` call the kernel meets
/// both fully live and partly live windows.
fn blocky_operand(rng: &mut SplitRng, m: usize, k: usize) -> Matrix {
    let mut a = rng.uniform_matrix(m, k, -2.0, 2.0);
    for r in 0..m {
        let block = r / 64;
        if block % 2 == 1 && (block == 1 || r % 3 == 0) {
            let w = 4 * (block % k.div_ceil(4));
            for v in &mut a.row_mut(r)[w..(w + 4).min(k)] {
                *v = if r % 2 == 0 { 0.0 } else { -0.0 };
            }
        }
    }
    a
}

/// `Aᵀ·B` at row counts below, at and above one and two 64-row blocks, and
/// at the arxiv substitute's 12,000 rows.
fn check_at_b_blocks() {
    for (s, &m) in [1usize, 63, 64, 65, 129, 12_000].iter().enumerate() {
        for &(k, n) in &[(64usize, 64usize), (13, 40), (128, 7)] {
            let mut rng = SplitRng::new(0xb10c + 8 * s as u64 + k as u64);
            let a = blocky_operand(&mut rng, m, k);
            let g = sparse_operand(&mut rng, m, n, 0.1);
            assert_same_bits(
                &a.t_matmul(&g),
                &reference::t_matmul(&a, &g),
                &format!("Aᵀ·B blocks {m}x{k}x{n}"),
            );
        }
    }
}

/// A value from a mix of ordinary floats and the edge cases the epilogue
/// must pass through unchanged: `±0.0`, NaN, ±inf and subnormals.
fn edge_value(rng: &mut SplitRng) -> f32 {
    match rng.below(12) {
        0 => -0.0,
        1 => 0.0,
        2 => f32::NAN,
        3 => f32::INFINITY,
        4 => f32::NEG_INFINITY,
        5 => f32::MIN_POSITIVE * rng.uniform(-0.9, 0.9),
        _ => rng.uniform(-2.0, 2.0),
    }
}

/// `m` with every NaN replaced by one canonical NaN. When an add meets two
/// NaNs of different payloads (a `0 · inf` product's default NaN and a NaN
/// bias) it returns one of them, and which one follows the compiler's
/// operand order, in the standalone `add_bias_in_place` as anywhere else;
/// every other value is compared by its bits.
fn nan_class(m: &Matrix) -> Matrix {
    let mut out = m.clone();
    for v in out.as_mut_slice() {
        if v.is_nan() {
            *v = f32::NAN;
        }
    }
    out
}

/// The epilogue against the standalone passes on the ISA `isa`. `A` is a
/// selection matrix (each row a single `1.0`, some rows none), so every
/// product element is one entry of `B` — `-0.0` entries become `+0.0`
/// products, NaN, ±inf and subnormal entries come through — and the bias
/// holds the same mix. Widths 1, 5, 16, 37 and 64 cover a lone masked
/// tile, full tiles and a masked last tile.
fn check_epilogue(isa: Isa) {
    for (s, &(m, k, n)) in [
        (9usize, 7usize, 1usize),
        (70, 12, 5),
        (33, 20, 16),
        (600, 33, 37),
        (301, 70, 64),
    ]
    .iter()
    .enumerate()
    {
        let mut rng = SplitRng::new(0xe91 + s as u64);
        let mut a = Matrix::zeros(m, k);
        for r in 0..m {
            if r % 7 != 3 {
                a.set(r, rng.below(k), 1.0);
            }
        }
        let mut b = Matrix::zeros(k, n);
        let mut bias = Matrix::zeros(1, n);
        for v in b.as_mut_slice().iter_mut().chain(bias.as_mut_slice()) {
            *v = edge_value(&mut rng);
        }
        for (with_bias, relu) in [(true, true), (true, false), (false, true)] {
            let mut want = a.matmul(&b);
            if with_bias {
                add_bias_in_place(&mut want, &bias);
            }
            if relu {
                relu_in_place(&mut want);
            }
            let ep = Epilogue {
                bias: with_bias.then(|| bias.row(0)),
                relu,
            };
            let mut got = Matrix::full(m, n, 7.0);
            a.matmul_with_into(&b, ep, &mut got);
            let label = format!("{isa:?} epilogue bias={with_bias} relu={relu} {m}x{k}x{n}");
            assert_same_bits(&nan_class(&got), &nan_class(&want), &label);
        }
    }
}

fn check_all_kernels() {
    for (s, &(m, k, n)) in SHAPES.iter().enumerate() {
        for (d, zeros) in [0.0, 0.5, 0.75, 0.99].into_iter().enumerate() {
            let mut rng = SplitRng::new(0x6e_44 + 16 * s as u64 + d as u64);
            let mut a = sparse_operand(&mut rng, m, k, zeros);
            carve_zero_windows(&mut a);
            let b = sparse_operand(&mut rng, k, n, 0.1);
            let g = sparse_operand(&mut rng, m, n, 0.1);
            let c = sparse_operand(&mut rng, n, k, 0.1);
            let label = format!("{m}x{k}x{n} at {zeros} zeros");
            assert_same_bits(
                &a.matmul(&b),
                &reference::matmul(&a, &b),
                &format!("A·B {label}"),
            );
            assert_same_bits(
                &a.t_matmul(&g),
                &reference::t_matmul(&a, &g),
                &format!("Aᵀ·B {label}"),
            );
            assert_same_bits(
                &a.matmul_t(&c),
                &reference::matmul_t(&a, &c),
                &format!("A·Bᵀ {label}"),
            );
        }
    }
}

#[test]
fn tiled_kernels_reproduce_the_replaced_kernels_bit_for_bit() {
    if simd::force(Isa::Avx2) != Isa::Avx2 {
        eprintln!("host lacks AVX2+FMA; the AVX2 kernels are not reachable here");
        return;
    }
    if std::env::var("GEMM_BITS_CHILD").is_ok() {
        check_all_kernels();
        check_at_b_blocks();
        for isa in [Isa::Avx2, Isa::Scalar] {
            simd::force(isa);
            check_epilogue(isa);
        }
        simd::force(Isa::Avx2);
        return;
    }
    let exe = std::env::current_exe().expect("test binary path");
    for threads in ["1", "2", "3", "4"] {
        let out = std::process::Command::new(&exe)
            .args([
                "--exact",
                "tiled_kernels_reproduce_the_replaced_kernels_bit_for_bit",
                "--nocapture",
            ])
            .env("GEMM_BITS_CHILD", "1")
            .env("SKIPNODE_THREADS", threads)
            .output()
            .expect("spawn child test process");
        assert!(
            out.status.success(),
            "SKIPNODE_THREADS={threads}: {}{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
    }
}
