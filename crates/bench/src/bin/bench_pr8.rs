//! Performance record of int8 inference and tape-level checkpointing.
//!
//! The bench times full compiled training epochs and a pure SpMM
//! microbench in `f32`, trains a model on Cora, and gates two claims
//! inline before anything is recorded:
//!
//! 1. **int8 inference** — per-column symmetric PTQ of the trained
//!    checkpoint, i32 accumulation. Quantized evaluation must lose at
//!    most 1 accuracy point against the f32 evaluation of the *same*
//!    checkpoint, and the dense-layer compute of that checkpoint must run
//!    at least 1.5x faster through the int8 GEMM.
//! 2. **tape-level gradient checkpointing** — segmented recompute keeps a
//!    depth-256 SkipNode training run within 2x the peak workspace bytes
//!    of the plain depth-16 run, bit-identically (a checkpointed-vs-plain
//!    gate runs first, as does the compiled-vs-eager f32 identity gate).
//!
//! Run with `cargo run --release -p skipnode-bench --bin bench_pr8`.
//! `SKIPNODE_BENCH_FAST=1` shrinks depths/epochs and skips the wall-clock
//! throughput assertion (CI machines are noisy); every identity and
//! accuracy gate still runs.

use skipnode_autograd::{softmax_cross_entropy, Tape, TrainProgram};
use skipnode_bench::timing::Bencher;
use skipnode_bench::{build_model, require, BenchSession};
use skipnode_core::{Sampling, SkipNodeConfig};
use skipnode_graph::{
    full_supervised_split, load, partition_graph, DatasetName, FeatureStyle, Graph,
    PartitionConfig, Scale,
};
use skipnode_nn::models::Model;
use skipnode_nn::{
    accuracy, compile_train_program, evaluate, evaluate_quantized, train_node_classifier, Adam,
    AdamConfig, ForwardCtx, Strategy, StrategySampler, TrainConfig,
};
use skipnode_sparse::CsrMatrix;
use skipnode_tensor::quant::{qgemm, QuantizedMatrix};
use skipnode_tensor::{workspace, Matrix, SplitRng};
use std::sync::Arc;

/// Bandwidth-bound training shape (same degree-skewed planted partition
/// as `bench_pr4`/`bench_pr5`).
fn skewed_graph() -> Graph {
    let mut rng = SplitRng::new(271);
    let cfg = PartitionConfig {
        n: 3000,
        m: 15_000,
        classes: 5,
        homophily: 0.7,
        power: 0.8,
    };
    partition_graph(
        &cfg,
        64,
        FeatureStyle::TfidfGaussian { separation: 0.5 },
        &mut rng,
    )
}

fn build(g: &Graph, depth: usize, rng: &mut SplitRng) -> Box<dyn Model> {
    require(build_model(
        "gcn",
        g.feature_dim(),
        64,
        g.num_classes(),
        depth,
        0.5,
        rng,
    ))
}

/// One eager training epoch (reference executor for the identity gate).
#[allow(clippy::too_many_arguments)]
fn one_epoch_eager(
    model: &mut dyn Model,
    opt: &mut Adam,
    g: &Graph,
    train_idx: &[usize],
    strategy: &Strategy,
    full_adj: &Arc<CsrMatrix>,
    degrees: &[usize],
    rng: &mut SplitRng,
) -> f64 {
    let mut tape = Tape::new();
    let binding = model.store().bind(&mut tape);
    let adj_id = tape.register_adj(Arc::clone(full_adj));
    let x = tape.constant_shared(g.features_arc());
    let mut fwd_rng = rng.split();
    let mut ctx = ForwardCtx::new(adj_id, x, degrees, strategy, true, &mut fwd_rng);
    let logits = model.forward(&mut tape, &binding, &mut ctx);
    let out = softmax_cross_entropy(tape.value(logits), g.labels(), train_idx);
    let mut grads = tape.backward(logits, out.grad);
    let param_grads: Vec<Option<Matrix>> = binding.nodes().iter().map(|&n| grads.take(n)).collect();
    opt.step(model.store_mut(), &param_grads);
    for g in param_grads.into_iter().flatten() {
        workspace::give(g);
    }
    out.loss
}

/// One compiled training epoch; the program may have checkpointing
/// enabled — the RNG consumption and results are identical either way.
#[allow(clippy::too_many_arguments)]
fn one_epoch_compiled(
    program: &mut TrainProgram,
    model: &mut dyn Model,
    opt: &mut Adam,
    g: &Graph,
    train_idx: &[usize],
    strategy: &Strategy,
    full_adj: &Arc<CsrMatrix>,
    degrees: &[usize],
    rng: &mut SplitRng,
) -> f64 {
    program.set_adjacency(Arc::clone(full_adj));
    program.load_params(model.store().values());
    let mut fwd_rng = rng.split();
    let mut sampler = StrategySampler::new(strategy, degrees);
    program.begin_epoch(&mut sampler, &mut fwd_rng);
    program.replay_forward();
    let head = program.heads()[0];
    let out = softmax_cross_entropy(program.value(head), g.labels(), train_idx);
    let param_grads = program.backward(vec![(head, out.grad)]);
    opt.step(model.store_mut(), &param_grads);
    for g in param_grads.into_iter().flatten() {
        workspace::give(g);
    }
    out.loss
}

/// Build a same-seed (model, program, optimizer) triple with the given
/// checkpoint segmentation.
fn compiled_setup(
    g: &Graph,
    full_adj: &Arc<CsrMatrix>,
    strategy: &Strategy,
    depth: usize,
    segments: usize,
) -> (Box<dyn Model>, TrainProgram, Adam, SplitRng) {
    let mut rng = SplitRng::new(33);
    let model = build(g, depth, &mut rng);
    let mut program = compile_train_program(model.as_ref(), g, full_adj, strategy, true)
        .unwrap_or_else(|e| panic!("{e}"));
    program.enable_checkpointing(segments);
    let opt = Adam::new(model.store(), AdamConfig::default());
    (model, program, opt, rng)
}

/// Warm epoch, then a measured epoch bracketed by `reset_peak`: returns
/// the peak workspace bytes of one steady-state training epoch.
#[allow(clippy::too_many_arguments)]
fn measured_peak(
    program: &mut TrainProgram,
    model: &mut dyn Model,
    opt: &mut Adam,
    g: &Graph,
    train_idx: &[usize],
    strategy: &Strategy,
    full_adj: &Arc<CsrMatrix>,
    degrees: &[usize],
    rng: &mut SplitRng,
) -> i64 {
    for pass in 0..2 {
        if pass == 1 {
            workspace::reset_peak();
        }
        one_epoch_compiled(
            program, model, opt, g, train_idx, strategy, full_adj, degrees, rng,
        );
    }
    workspace::stats().peak_live_bytes
}

fn main() {
    let mut session = BenchSession::start("8");
    let fast = session.fast;
    let bench = &mut session.bench;

    let g = skewed_graph();
    let full_adj = g.gcn_adjacency();
    let degrees = g.degrees();
    let train_idx: Vec<usize> = (0..g.num_nodes()).step_by(10).collect();
    let strategy = Strategy::SkipNode(SkipNodeConfig::new(0.5, Sampling::Uniform));
    let gate_epochs = if fast { 3 } else { 5 };

    let meta = &mut session.meta;
    meta.extend([
        (
            "graph",
            "planted_partition n=3000 m=15000 power=0.8".to_string(),
        ),
        ("backbone", "gcn + SkipNode-U(0.5)".to_string()),
    ]);

    // ---- gate: compiled-vs-eager identity, f32 mode ------------------
    // The engine identity from bench_pr5 must still hold with the
    // checkpointing hooks compiled in.
    {
        let depth = 16;
        let mut rng_e = SplitRng::new(33);
        let mut eager_model = build(&g, depth, &mut rng_e);
        let mut opt_e = Adam::new(eager_model.store(), AdamConfig::default());
        let (mut compiled_model, mut program, mut opt_c, mut rng_c) =
            compiled_setup(&g, &full_adj, &strategy, depth, 0);
        for epoch in 0..gate_epochs {
            let le = one_epoch_eager(
                eager_model.as_mut(),
                &mut opt_e,
                &g,
                &train_idx,
                &strategy,
                &full_adj,
                &degrees,
                &mut rng_e,
            );
            let lc = one_epoch_compiled(
                &mut program,
                compiled_model.as_mut(),
                &mut opt_c,
                &g,
                &train_idx,
                &strategy,
                &full_adj,
                &degrees,
                &mut rng_c,
            );
            assert_eq!(
                le.to_bits(),
                lc.to_bits(),
                "f32 compiled-vs-eager loss diverged at epoch {epoch} ({le} vs {lc})"
            );
        }
        println!("compiled-vs-eager f32 identity gate passed ({gate_epochs} epochs)");
    }

    // ---- gate: checkpointed-vs-plain bitwise identity ----------------
    {
        let depth = if fast { 16 } else { 64 };
        let (mut m_plain, mut p_plain, mut o_plain, mut rng_plain) =
            compiled_setup(&g, &full_adj, &strategy, depth, 0);
        let (mut m_ck, mut p_ck, mut o_ck, mut rng_ck) =
            compiled_setup(&g, &full_adj, &strategy, depth, 8);
        assert!(p_ck.is_checkpointing(), "checkpointing did not engage");
        for epoch in 0..gate_epochs {
            let lp = one_epoch_compiled(
                &mut p_plain,
                m_plain.as_mut(),
                &mut o_plain,
                &g,
                &train_idx,
                &strategy,
                &full_adj,
                &degrees,
                &mut rng_plain,
            );
            let lc = one_epoch_compiled(
                &mut p_ck,
                m_ck.as_mut(),
                &mut o_ck,
                &g,
                &train_idx,
                &strategy,
                &full_adj,
                &degrees,
                &mut rng_ck,
            );
            assert_eq!(
                lp.to_bits(),
                lc.to_bits(),
                "checkpointed loss diverged at epoch {epoch} ({lp} vs {lc})"
            );
        }
        for (pv, cv) in m_plain.store().values().zip(m_ck.store().values()) {
            assert_eq!(
                pv.as_slice(),
                cv.as_slice(),
                "checkpointed final parameters diverged"
            );
        }
        println!("checkpointed-vs-plain bitwise gate passed (depth {depth}, {gate_epochs} epochs)");
    }

    // ---- f32: epoch time + SpMM microbench ---------------------------
    {
        let depth = 16;
        let (mut model, mut program, mut opt, mut rng) =
            compiled_setup(&g, &full_adj, &strategy, depth, 0);
        let mut bench_rng = rng.split();
        bench.run("epoch_compiled", &format!("d{depth}/f32"), || {
            one_epoch_compiled(
                &mut program,
                model.as_mut(),
                &mut opt,
                &g,
                &train_idx,
                &strategy,
                &full_adj,
                &degrees,
                &mut bench_rng,
            )
        });
        let x = SplitRng::new(5).uniform_matrix(g.num_nodes(), 64, -1.0, 1.0);
        let mut out = Matrix::zeros(g.num_nodes(), 64);
        bench.run("spmm", "n3000_f64/f32", || {
            full_adj.spmm_into(&x, &mut out);
        });
    }

    // ---- f32 training on Cora: the checkpoint the int8 gate reads -----
    let cora = load(DatasetName::Cora, Scale::Bench, 7);
    let cora_split = full_supervised_split(&cora, &mut SplitRng::new(11));
    let cora_strategy = Strategy::SkipNode(SkipNodeConfig::new(0.3, Sampling::Uniform));
    let cora_cfg = TrainConfig {
        epochs: if fast { 12 } else { 60 },
        ..TrainConfig::default()
    };
    let mut cora_rng = SplitRng::new(21);
    let mut cora_model = build(&cora, 4, &mut cora_rng);
    let res_f32 = train_node_classifier(
        cora_model.as_mut(),
        &cora,
        &cora_split,
        &cora_strategy,
        &cora_cfg,
        &mut SplitRng::new(77),
    );
    println!("cora test accuracy: f32 {:.4}", res_f32.test_accuracy);
    meta.push(("cora_acc_f32", format!("{:.4}", res_f32.test_accuracy)));

    // ---- int8: accuracy drop + dense-layer throughput ----------------
    // `cora_model` now holds the f32-trained checkpoint; quantized
    // evaluation must track its own f32 evaluation on the same weights.
    {
        let cora_adj = cora.gcn_adjacency();
        let (logits_f32, _) = evaluate(
            cora_model.as_ref(),
            &cora,
            &cora_adj,
            &cora_strategy,
            &mut SplitRng::new(88),
        );
        let (logits_i8, _) = evaluate_quantized(
            cora_model.as_ref(),
            &cora,
            &cora_adj,
            &cora_strategy,
            &mut SplitRng::new(88),
        );
        let acc_f32 = accuracy(&logits_f32, cora.labels(), &cora_split.test);
        let acc_i8 = accuracy(&logits_i8, cora.labels(), &cora_split.test);
        workspace::give(logits_f32);
        workspace::give(logits_i8);
        println!("cora checkpoint eval: f32 {acc_f32:.4}, int8 {acc_i8:.4}");
        assert!(
            acc_f32 - acc_i8 <= 0.01,
            "int8 accuracy drop {:.4} exceeds 1 point",
            acc_f32 - acc_i8
        );
        meta.push(("int8_acc_f32", format!("{acc_f32:.4}")));
        meta.push(("int8_acc_int8", format!("{acc_i8:.4}")));

        // Dense-layer compute of the checkpoint: every weight matrix
        // applied to an activation block of Cora height, f32 GEMM vs
        // prequantized int8 GEMM (the PTQ calibration is off the clock,
        // exactly as in deployment).
        let weights: Vec<Matrix> = cora_model
            .store()
            .values()
            .filter(|w| w.rows() > 1)
            .cloned()
            .collect();
        let mut act_rng = SplitRng::new(99);
        let acts: Vec<Matrix> = weights
            .iter()
            .map(|w| act_rng.uniform_matrix(cora.num_nodes(), w.rows(), -1.0, 1.0))
            .collect();
        let qweights: Vec<QuantizedMatrix> =
            weights.iter().map(QuantizedMatrix::from_cols).collect();
        let mut outs: Vec<Matrix> = weights
            .iter()
            .map(|w| Matrix::zeros(cora.num_nodes(), w.cols()))
            .collect();
        let mut measure = |bench: &mut Bencher, attempt: usize| {
            let tag = if attempt == 0 {
                String::new()
            } else {
                format!("/retry{attempt}")
            };
            let f32_ns = bench
                .run("checkpoint_dense", &format!("f32{tag}"), || {
                    for (a, w) in acts.iter().zip(&weights) {
                        workspace::give(a.matmul(w));
                    }
                })
                .mean_ns;
            let i8_ns = bench
                .run("checkpoint_dense", &format!("int8{tag}"), || {
                    for ((a, qw), out) in acts.iter().zip(&qweights).zip(&mut outs) {
                        qgemm(a, qw, out);
                    }
                })
                .mean_ns;
            f32_ns / i8_ns
        };
        let mut speedup = measure(bench, 0);
        if speedup < 1.5 && !fast {
            // One re-measure guards against transient interference.
            speedup = measure(bench, 1);
        }
        println!("int8 dense-layer speedup: {speedup:.2}x");
        if !fast {
            assert!(
                speedup >= 1.5,
                "int8 dense-layer speedup {speedup:.2}x below the 1.5x gate"
            );
        }
        meta.push(("int8_dense_speedup", format!("{speedup:.2}")));
    }

    // ---- checkpointing: depth scaling of peak workspace bytes --------
    // Depth-16 plain replay is the budget; deeper runs are checkpointed
    // and must hold peak residency near it instead of scaling linearly.
    let depth_cases: Vec<(usize, usize)> = if fast {
        vec![(16, 0), (64, 8)]
    } else {
        vec![(16, 0), (64, 8), (128, 16), (256, 32)]
    };
    let mut peaks = Vec::new();
    let mut baseline_peak = 0i64;
    for &(depth, segments) in &depth_cases {
        let (mut model, mut program, mut opt, mut rng) =
            compiled_setup(&g, &full_adj, &strategy, depth, segments);
        let peak = measured_peak(
            &mut program,
            model.as_mut(),
            &mut opt,
            &g,
            &train_idx,
            &strategy,
            &full_adj,
            &degrees,
            &mut rng,
        );
        let label = if segments == 0 {
            format!("d{depth}/plain")
        } else {
            format!("d{depth}/ck{segments}")
        };
        println!("{label}: peak workspace {peak} B");
        let mut bench_rng = rng.split();
        bench.run("epoch_checkpointed", &label, || {
            one_epoch_compiled(
                &mut program,
                model.as_mut(),
                &mut opt,
                &g,
                &train_idx,
                &strategy,
                &full_adj,
                &degrees,
                &mut bench_rng,
            )
        });
        if segments == 0 && depth == 16 {
            baseline_peak = peak;
        }
        peaks.push(format!("{label}={peak}"));
    }
    let (max_depth, max_segments) = *depth_cases.last().expect("depth cases");
    let deepest_peak: i64 = peaks
        .last()
        .and_then(|p| p.rsplit('=').next())
        .and_then(|v| v.parse().ok())
        .expect("deepest peak");
    assert!(
        deepest_peak <= 2 * baseline_peak,
        "depth-{max_depth} checkpointed peak ({deepest_peak} B, {max_segments} segments) \
         exceeds 2x the depth-16 budget ({baseline_peak} B)"
    );
    println!(
        "depth-{max_depth} checkpointed peak {deepest_peak} B within 2x of depth-16 \
         budget {baseline_peak} B"
    );
    meta.push(("peak_workspace_bytes", peaks.join("; ")));

    session.finish("results/BENCH_PR8.json");
}
