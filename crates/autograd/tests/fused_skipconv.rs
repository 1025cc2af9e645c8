//! Fused `Op::SkipConv` equivalence: forward and backward must match the
//! unfused `spmm → matmul → add_bias → relu → row_combine` chain within
//! 1e-5 across skip ratios and odd (non-round, d_in ≠ d_out) shapes.

use skipnode_autograd::{NodeId, Tape};
use skipnode_sparse::CooBuilder;
use skipnode_tensor::{Matrix, SplitRng};
use std::sync::Arc;

fn random_matrix(rows: usize, cols: usize, rng: &mut SplitRng) -> Matrix {
    let mut m = Matrix::zeros(rows, cols);
    for v in m.as_mut_slice() {
        *v = rng.normal();
    }
    m
}

fn random_adjacency(n: usize, rng: &mut SplitRng) -> Arc<skipnode_sparse::CsrMatrix> {
    let mut b = CooBuilder::new(n, n);
    for u in 0..n {
        b.push(u, u, 0.5);
        for _ in 0..3 {
            let v = rng.below(n);
            if v != u {
                // Asymmetric weights so backward exercises the cached
                // transpose route, not the symmetric shortcut.
                b.push(u, v, 0.1 + rng.unit() as f32 * 0.3);
            }
        }
    }
    Arc::new(b.build())
}

struct Run {
    out: Matrix,
    dx: Option<Matrix>,
    dskip: Option<Matrix>,
    dw: Matrix,
    db: Matrix,
}

fn run(fused: bool, mask: &[bool], n: usize, d_in: usize, d_out: usize) -> Run {
    let mut rng = SplitRng::new(99);
    let adj_mat = random_adjacency(n, &mut rng);
    let xv = random_matrix(n, d_in, &mut rng);
    let sv = random_matrix(n, d_out, &mut rng);
    let wv = random_matrix(d_in, d_out, &mut rng);
    let bv = random_matrix(1, d_out, &mut rng);
    let seed = random_matrix(n, d_out, &mut rng);

    let mut tape = Tape::new();
    let adj = tape.register_adj(adj_mat);
    let x = tape.param(xv);
    let skip = tape.param(sv);
    let w = tape.param(wv);
    let b = tape.param(bv);
    let out: NodeId = if fused {
        tape.skip_conv(adj, x, skip, w, b, mask)
    } else {
        let p = tape.spmm(adj, x);
        let z = tape.matmul(p, w);
        let zb = tape.add_bias(z, b);
        let a = tape.relu(zb);
        tape.row_combine(a, skip, mask)
    };
    let value = tape.value(out).clone();
    let mut grads = tape.backward(out, seed);
    Run {
        out: value,
        dx: grads.take(x),
        dskip: grads.take(skip),
        dw: grads.take(w).expect("dW"),
        db: grads.take(b).expect("db"),
    }
}

fn assert_close(got: &Matrix, want: &Matrix, label: &str) {
    assert_eq!(got.shape(), want.shape(), "{label}: shape");
    for (i, (a, b)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert!(
            (a - b).abs() <= 1e-5,
            "{label}: element {i} differs: {a} vs {b}"
        );
    }
}

fn mask_with_ratio(n: usize, ratio: f64) -> Vec<bool> {
    // Deterministic interleaving at the requested skip ratio.
    (0..n)
        .map(|i| ((i as f64 * ratio) as usize) != (((i + 1) as f64 * ratio) as usize))
        .collect()
}

fn check_equivalence(n: usize, d_in: usize, d_out: usize, ratio: f64) {
    let mask = mask_with_ratio(n, ratio);
    let fused = run(true, &mask, n, d_in, d_out);
    let unfused = run(false, &mask, n, d_in, d_out);
    let label = format!("n={n} d_in={d_in} d_out={d_out} ratio={ratio}");
    assert_close(&fused.out, &unfused.out, &format!("{label} forward"));
    assert_close(
        fused.dx.as_ref().expect("fused dx"),
        unfused.dx.as_ref().expect("unfused dx"),
        &format!("{label} dx"),
    );
    assert_close(
        fused.dskip.as_ref().expect("fused dskip"),
        unfused.dskip.as_ref().expect("unfused dskip"),
        &format!("{label} dskip"),
    );
    assert_close(&fused.dw, &unfused.dw, &format!("{label} dW"));
    assert_close(&fused.db, &unfused.db, &format!("{label} db"));
}

#[test]
fn fused_matches_unfused_at_skip_ratio_zero() {
    check_equivalence(64, 16, 16, 0.0);
}

#[test]
fn fused_matches_unfused_at_skip_ratio_half() {
    check_equivalence(64, 16, 16, 0.5);
}

#[test]
fn fused_matches_unfused_at_skip_ratio_one() {
    check_equivalence(64, 16, 16, 1.0);
}

#[test]
fn fused_matches_unfused_on_odd_shapes() {
    // Non-round node count, d_in ≠ d_out, and a lopsided ratio.
    check_equivalence(37, 13, 11, 0.5);
    check_equivalence(101, 7, 19, 0.25);
}

/// Outputs and gradients of one generalized fused-step run
/// ([`Tape::skip_conv_step`]) or its unfused reference chain.
struct VariantRun {
    out: Matrix,
    dx: Matrix,
    dskip: Matrix,
    dw: Matrix,
    db: Option<Matrix>,
    dh0: Option<Matrix>,
    dres: Option<Matrix>,
}

/// Run the generalized step `post_conv(relu(support · W̃ [+ b]) [+ res])`
/// where `support = (1-α)·Ã·x + α·h0` (when `init_alpha`) and
/// `W̃ = (1-β)·I + β·W` (when `beta`), fused or as the canonical unfused
/// op chain.
#[allow(clippy::too_many_arguments)]
fn run_variant(
    fused: bool,
    mask: &[bool],
    n: usize,
    d_in: usize,
    d_out: usize,
    with_bias: bool,
    init_alpha: Option<f32>,
    beta: Option<f32>,
    with_residual: bool,
) -> VariantRun {
    assert!(
        beta.is_none() || d_in == d_out,
        "identity map needs square W"
    );
    let mut rng = SplitRng::new(99);
    let adj_mat = random_adjacency(n, &mut rng);
    let xv = random_matrix(n, d_in, &mut rng);
    let sv = random_matrix(n, d_out, &mut rng);
    let wv = random_matrix(d_in, d_out, &mut rng);
    let bv = random_matrix(1, d_out, &mut rng);
    let h0v = random_matrix(n, d_in, &mut rng);
    let resv = random_matrix(n, d_out, &mut rng);
    let seed = random_matrix(n, d_out, &mut rng);

    let mut tape = Tape::new();
    let adj = tape.register_adj(adj_mat);
    let x = tape.param(xv);
    let skip = tape.param(sv);
    let w = tape.param(wv);
    let b = with_bias.then(|| tape.param(bv));
    let h0 = init_alpha.is_some().then(|| tape.param(h0v));
    let res = with_residual.then(|| tape.param(resv));
    let out: NodeId = if fused {
        tape.skip_conv_step(
            adj,
            skipnode_autograd::FusedStep {
                x,
                skip,
                w,
                b,
                init_residual: h0.map(|h0| (h0, init_alpha.unwrap())),
                identity_map: beta,
                residual: res,
                dropout: 0.0,
            },
            &mut rng,
            |_| mask.to_vec(),
        )
    } else {
        let p = tape.spmm(adj, x);
        let support = match (h0, init_alpha) {
            (Some(h0), Some(alpha)) => tape.lin_comb(&[(p, 1.0 - alpha), (h0, alpha)]),
            _ => p,
        };
        let t = tape.matmul(support, w);
        let z = match beta {
            Some(beta) => tape.lin_comb(&[(support, 1.0 - beta), (t, beta)]),
            None => t,
        };
        let z = match b {
            Some(b) => tape.add_bias(z, b),
            None => z,
        };
        let a = tape.relu(z);
        let a = match res {
            Some(res) => tape.add(a, res),
            None => a,
        };
        tape.row_combine(a, skip, mask)
    };
    let value = tape.value(out).clone();
    let mut grads = tape.backward(out, seed);
    VariantRun {
        out: value,
        dx: grads.take(x).expect("dx"),
        dskip: grads.take(skip).expect("dskip"),
        dw: grads.take(w).expect("dW"),
        db: b.map(|b| grads.take(b).expect("db")),
        dh0: h0.map(|h0| grads.take(h0).expect("dh0")),
        dres: res.map(|res| grads.take(res).expect("dres")),
    }
}

/// Fused-vs-unfused forward + full-gradient equivalence for one variant.
#[allow(clippy::too_many_arguments)]
fn check_variant(
    n: usize,
    d_in: usize,
    d_out: usize,
    ratio: f64,
    with_bias: bool,
    init_alpha: Option<f32>,
    beta: Option<f32>,
    with_residual: bool,
) {
    let mask = mask_with_ratio(n, ratio);
    let args = (n, d_in, d_out, with_bias, init_alpha, beta, with_residual);
    let fused = run_variant(
        true,
        &mask,
        n,
        d_in,
        d_out,
        with_bias,
        init_alpha,
        beta,
        with_residual,
    );
    let unfused = run_variant(
        false,
        &mask,
        n,
        d_in,
        d_out,
        with_bias,
        init_alpha,
        beta,
        with_residual,
    );
    let label = format!("variant {args:?} ratio={ratio}");
    assert_close(&fused.out, &unfused.out, &format!("{label} forward"));
    assert_close(&fused.dx, &unfused.dx, &format!("{label} dx"));
    assert_close(&fused.dskip, &unfused.dskip, &format!("{label} dskip"));
    assert_close(&fused.dw, &unfused.dw, &format!("{label} dW"));
    for (got, want, grad) in [
        (&fused.db, &unfused.db, "db"),
        (&fused.dh0, &unfused.dh0, "dh0"),
        (&fused.dres, &unfused.dres, "dres"),
    ] {
        match (got, want) {
            (Some(got), Some(want)) => assert_close(got, want, &format!("{label} {grad}")),
            (None, None) => {}
            _ => panic!("{label}: {grad} present on one path only"),
        }
    }
}

#[test]
fn fused_step_without_bias_matches_unfused() {
    for ratio in [0.0, 0.5] {
        check_variant(64, 16, 16, ratio, false, None, None, false);
        check_variant(37, 13, 11, ratio, false, None, None, false);
    }
}

#[test]
fn fused_step_with_initial_residual_matches_unfused() {
    // GCNII's `support = (1-α)·Ã·x + α·h0` — h0 gets its own gradient.
    for ratio in [0.0, 0.5] {
        check_variant(64, 16, 16, ratio, true, Some(0.1), None, false);
        check_variant(37, 13, 11, ratio, false, Some(0.25), None, false);
    }
}

#[test]
fn fused_step_with_identity_map_matches_unfused() {
    // GCNII's `W̃ = (1-β)·I + β·W` — requires a square weight.
    for ratio in [0.0, 0.5] {
        check_variant(64, 16, 16, ratio, false, None, Some(0.3), false);
        check_variant(41, 12, 12, ratio, true, None, Some(0.7), false);
    }
}

#[test]
fn fused_step_with_post_relu_residual_matches_unfused() {
    // ResGCN's skip connection added after the ReLU — the backward must
    // route the residual's gradient around the ReLU mask.
    for ratio in [0.0, 0.5] {
        check_variant(64, 16, 16, ratio, true, None, None, true);
        check_variant(37, 13, 11, ratio, true, None, None, true);
    }
}

#[test]
fn fused_step_with_all_options_matches_unfused() {
    // The full GCNII-shaped step plus a residual, at several ratios.
    for ratio in [0.0, 0.25, 0.5, 1.0] {
        check_variant(53, 14, 14, ratio, false, Some(0.1), Some(0.4), true);
    }
}

#[test]
fn skipped_rows_copy_skip_branch_exactly() {
    let n = 40;
    let mask = mask_with_ratio(n, 0.5);
    let mut rng = SplitRng::new(3);
    let adj_mat = random_adjacency(n, &mut rng);
    let xv = random_matrix(n, 8, &mut rng);
    let sv = random_matrix(n, 8, &mut rng);
    let wv = random_matrix(8, 8, &mut rng);
    let bv = random_matrix(1, 8, &mut rng);
    let mut tape = Tape::new();
    let adj = tape.register_adj(adj_mat);
    let x = tape.param(xv);
    let skip_node = tape.param(sv.clone());
    let w = tape.param(wv);
    let b = tape.param(bv);
    let out = tape.skip_conv(adj, x, skip_node, w, b, &mask);
    for (r, &take) in mask.iter().enumerate() {
        if take {
            assert_eq!(tape.value(out).row(r), sv.row(r), "row {r}");
        }
    }
}

/// The initial residual of a folded-dropout case.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Init {
    None,
    /// A separate `h0` (GCNII's later layers).
    Separate,
    /// `h0` is the carry itself (GCNII's first middle layer).
    Carry,
}

/// How a folded-dropout case builds its layer.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Build {
    /// `skip_conv_step` with `FusedStep::dropout`.
    Folded,
    /// `dropout → skip_conv_step`.
    Chain,
    /// `dropout → skip_conv_step` with the skip branch read through an
    /// exact copy of the carry (`h · 1.0`), so the skip route reaches the
    /// carry's slot as its own later accumulation.
    SkipCopy,
}

/// Value, input gradients (carry, W, b, separate h0) and the RNG's next
/// draw after one run.
struct FoldRun {
    out: Matrix,
    grads: Vec<Matrix>,
    next_draw: u64,
}

#[allow(clippy::too_many_arguments)]
fn run_fold(
    build: Build,
    adj_mat: &Arc<skipnode_sparse::CsrMatrix>,
    mask: &[bool],
    rate: f64,
    prior: bool,
    residual: bool,
    init: Init,
    seed: &Matrix,
) -> FoldRun {
    let n = mask.len();
    let d = seed.cols();
    let mut init_rng = SplitRng::new(17);
    let hv = random_matrix(n, d, &mut init_rng);
    let wv = random_matrix(d, d, &mut init_rng);
    let bv = random_matrix(1, d, &mut init_rng);
    let h0v = random_matrix(n, d, &mut init_rng);

    let mut tape = Tape::new();
    let adj = tape.register_adj(Arc::clone(adj_mat));
    let h = tape.param(hv);
    let w = tape.param(wv);
    let b = tape.param(bv);
    let h0 = tape.param(h0v);
    let init_residual = match init {
        Init::None => None,
        Init::Separate => Some((h0, 0.2)),
        Init::Carry => Some((h, 0.2)),
    };
    let mut rng = SplitRng::new(5);
    let folded = build == Build::Folded;
    let x = if folded {
        h
    } else {
        tape.dropout(h, rate, &mut rng)
    };
    let skip = match build {
        Build::SkipCopy => tape.scale(h, 1.0),
        _ => h,
    };
    let step = skipnode_autograd::FusedStep {
        x,
        skip,
        w,
        b: Some(b),
        init_residual,
        identity_map: (init != Init::None).then_some(0.4),
        residual: residual.then_some(h),
        dropout: if folded { rate } else { 0.0 },
    };
    let out = tape.skip_conv_step(adj, step, &mut rng, |_| mask.to_vec());
    let mut seeds = vec![(out, seed.clone())];
    if prior {
        // A later reader of the carry: its gradient is already in the
        // carry's slot when the fused layer's backward runs.
        let later = tape.scale(h, -0.75);
        seeds.push((later, Matrix::full(n, d, 1.0)));
    }
    let value = tape.value(out).clone();
    let mut grads = tape.backward_multi(seeds);
    let mut taken = vec![grads.take(h).expect("carry gradient")];
    taken.push(grads.take(w).expect("dW"));
    taken.push(grads.take(b).expect("db"));
    if init == Init::Separate {
        taken.push(grads.take(h0).expect("dh0"));
    }
    FoldRun {
        out: value,
        grads: taken,
        next_draw: rng.next_u64(),
    }
}

fn assert_bits(got: &Matrix, want: &Matrix, label: &str) {
    assert_eq!(got.shape(), want.shape(), "{label}: shape");
    for (i, (a, b)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{label}: element {i} differs: {a:?} vs {b:?}"
        );
    }
}

/// A dropout folded into the fused layer (`FusedStep::dropout`) must equal
/// `dropout → skip_conv_step` bit for bit: the value, every input gradient
/// (including the order of the f32 additions into the carry's slot) and
/// the RNG stream. Routing the skip branch through an exact copy of the
/// carry must not change a bit either: it turns the skip route into a
/// separate accumulation, pinning where it falls among the others. The
/// adjacency is asymmetric and has rows without a self loop, so N(active)
/// is exercised through both `Ã` and its transpose and some skipped rows
/// lie outside it; those rows carry an upstream `-0.0`, which the unfolded
/// chain turns into `+0.0` by adding the masked propagation's zero row.
#[test]
fn folded_dropout_matches_dropout_then_fused_step_bitwise() {
    let (n, d) = (48, 6);
    let mut rng = SplitRng::new(23);
    let mut b = CooBuilder::new(n, n);
    for u in 0..n {
        if u % 3 == 0 {
            b.push(u, u, 0.5);
        }
        b.push(u, (u * 5 + 1) % n, 0.2 + rng.unit() as f32 * 0.3);
        if u % 2 == 0 {
            b.push(u, (u * 7 + 3) % n, 0.1 + rng.unit() as f32 * 0.3);
        }
    }
    let adj_mat = Arc::new(b.build());
    assert!(
        !adj_mat.is_symmetric(1e-6),
        "the adjacency must be asymmetric"
    );

    for ratio in [0.0, 0.5, 0.9, 1.0] {
        let mask = mask_with_ratio(n, ratio);
        // N(active): the columns the active rows read.
        let mut in_nbr = vec![false; n];
        for r in (0..n).filter(|&r| !mask[r]) {
            for &c in adj_mat.row(r).0 {
                in_nbr[c as usize] = true;
            }
        }
        let mut seed = random_matrix(n, d, &mut rng);
        let outside: Vec<usize> = (0..n).filter(|&r| mask[r] && !in_nbr[r]).collect();
        for &r in &outside {
            seed.set(r, 0, -0.0);
        }
        for rate in [0.0, 0.5] {
            for prior in [false, true] {
                for residual in [false, true] {
                    for init in [Init::None, Init::Separate, Init::Carry] {
                        let label = format!(
                            "ratio {ratio} rate {rate} prior {prior} residual {residual} init {init:?}"
                        );
                        let run = |build| {
                            run_fold(build, &adj_mat, &mask, rate, prior, residual, init, &seed)
                        };
                        let folded = run(Build::Folded);
                        for build in [Build::Chain, Build::SkipCopy] {
                            let other = run(build);
                            let label = format!("{label} vs {build:?}");
                            assert_bits(&folded.out, &other.out, &format!("{label}: value"));
                            for (k, (got, want)) in
                                folded.grads.iter().zip(&other.grads).enumerate()
                            {
                                assert_bits(got, want, &format!("{label}: gradient {k}"));
                            }
                            assert_eq!(folded.next_draw, other.next_draw, "{label}: RNG stream");
                        }
                        if !prior && !residual && init == Init::None {
                            for &r in &outside {
                                assert_eq!(
                                    folded.grads[0].get(r, 0).to_bits(),
                                    0,
                                    "{label}: row {r} keeps an upstream -0.0"
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}
