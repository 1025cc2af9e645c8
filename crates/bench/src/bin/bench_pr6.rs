//! Performance record of the SIMD kernel backend and the cache-locality
//! graph reordering pass.
//!
//! Part A is the headline A/B: full training-epoch time for a
//! compute-bound GCN+SkipNode stack (hidden 128) with the kernels forced
//! to the scalar ISA versus the detected vector ISA. At least one
//! (depth, rate) config must show a >= 1.5x epoch speedup on hosts with a
//! vector ISA. Before anything is timed, an equivalence gate runs: vector
//! logits must match scalar within 1e-5 relative tolerance (FMA
//! contraction is the only permitted difference).
//!
//! Part B records the cache-locality claim: SpMM latency on the
//! hub-heavy adjacency before and after RCM reordering. The ratio goes
//! into the metadata without an assertion — locality wins depend on the
//! host cache hierarchy — so the JSON itself carries the evidence.
//!
//! Run with `cargo run --release -p skipnode-bench --bin bench_pr6`.
//! `SKIPNODE_BENCH_FAST=1` shrinks the budgets for smoke testing.

use skipnode_autograd::{softmax_cross_entropy, Tape};
use skipnode_bench::BenchSession;
use skipnode_core::{Sampling, SkipNodeConfig};
use skipnode_graph::{
    partition_graph, reorder_graph, FeatureStyle, Graph, GraphReorder, PartitionConfig,
};
use skipnode_nn::models::{Gcn, Model};
use skipnode_nn::{Adam, AdamConfig, ForwardCtx, Strategy};
use skipnode_sparse::CsrMatrix;
use skipnode_tensor::simd::{self, Isa};
use skipnode_tensor::{workspace, Matrix, SplitRng};
use std::sync::Arc;

/// Hidden width for the epoch A/B: wide enough that dense GEMM dominates
/// the epoch, which is where the vector lanes pay.
const HIDDEN: usize = 128;

/// Hub-heavy graph (same shape as `bench_pr2`..`bench_pr5` so the records
/// compare): degree-corrected planted partition with a propensity tail.
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

/// Best vector ISA this host supports, or `Scalar` when there is none (the
/// speedup assertion is skipped there — scalar vs scalar proves nothing).
fn detect_vector_isa() -> Isa {
    for isa in [Isa::Avx2, Isa::Neon] {
        if simd::force(isa) == isa {
            return isa;
        }
    }
    Isa::Scalar
}

/// One training forward on a fixed RNG stream — the equivalence probe.
fn forward_logits(
    model: &Gcn,
    g: &Graph,
    strategy: &Strategy,
    full_adj: &Arc<CsrMatrix>,
    degrees: &[usize],
) -> Matrix {
    let mut tape = Tape::new();
    let binding = model.store().bind(&mut tape);
    let adj_id = tape.register_adj(Arc::clone(full_adj));
    let x = tape.constant_shared(g.features_arc());
    let mut rng = SplitRng::new(77);
    let mut ctx = ForwardCtx::new(adj_id, x, degrees, strategy, true, &mut rng);
    let out = model.forward(&mut tape, &binding, &mut ctx);
    tape.value(out).clone()
}

/// One eager training epoch (fresh tape, backward, Adam); returns the
/// train loss so the scalar-vs-vector runs can be cross-checked.
#[allow(clippy::too_many_arguments)]
fn one_epoch(
    model: &mut Gcn,
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

/// Equivalence gate: the vector ISA matches scalar within FMA-contraction
/// tolerance.
fn equivalence_gates(g: &Graph, full_adj: &Arc<CsrMatrix>, degrees: &[usize], vector_isa: Isa) {
    let strategy = Strategy::SkipNode(SkipNodeConfig::new(0.5, Sampling::Uniform));
    let mut rng = SplitRng::new(33);
    let model = Gcn::new(g.feature_dim(), HIDDEN, g.num_classes(), 4, 0.5, &mut rng);

    simd::force(Isa::Scalar);
    let scalar = forward_logits(&model, g, &strategy, full_adj, degrees);

    if vector_isa != Isa::Scalar {
        simd::force(vector_isa);
        let vector = forward_logits(&model, g, &strategy, full_adj, degrees);
        for (i, (v, s)) in vector.as_slice().iter().zip(scalar.as_slice()).enumerate() {
            assert!(
                (v - s).abs() <= 1e-5 * (1.0 + s.abs()),
                "logit {i}: vector {v} vs scalar {s} outside FMA tolerance"
            );
        }
        simd::force(Isa::Scalar);
    }
    println!("equivalence gate passed (vector within 1e-5)");
}

fn main() {
    let mut session = BenchSession::start("6");
    let fast = session.fast;
    let bench = &mut session.bench;
    let vector_isa = detect_vector_isa();
    simd::force(Isa::Scalar);
    println!("host vector ISA: {}", vector_isa.name());

    let g = skewed_graph();
    let full_adj = g.gcn_adjacency();
    let degrees = g.degrees();
    let train_idx: Vec<usize> = (0..g.num_nodes()).step_by(10).collect();

    equivalence_gates(&g, &full_adj, &degrees, vector_isa);

    // ---- Part A: epoch time, scalar vs vector -------------------------
    let depths: Vec<usize> = if fast { vec![4] } else { vec![4, 16] };
    let mut best_speedup = 0.0f64;
    let mut best_config = String::new();
    let mut speedup_summary = Vec::new();
    for &depth in &depths {
        for &rate in &[0.25f64, 0.5] {
            let strategy = Strategy::SkipNode(SkipNodeConfig::new(rate, Sampling::Uniform));
            let mut mean = |isa: Isa, group: &str| {
                simd::force(isa);
                let mut rng = SplitRng::new(33);
                let mut model = Gcn::new(
                    g.feature_dim(),
                    HIDDEN,
                    g.num_classes(),
                    depth,
                    0.5,
                    &mut rng,
                );
                let mut opt = Adam::new(model.store(), AdamConfig::default());
                let mut bench_rng = rng.split();
                bench
                    .run(group, &format!("gcn/d{depth}/rho{rate}"), || {
                        one_epoch(
                            &mut model,
                            &mut opt,
                            &g,
                            &train_idx,
                            &strategy,
                            &full_adj,
                            &degrees,
                            &mut bench_rng,
                        )
                    })
                    .mean_ns
            };
            let scalar_ns = mean(Isa::Scalar, "epoch_scalar");
            let vector_ns = mean(vector_isa, "epoch_simd");
            let speedup = scalar_ns / vector_ns;
            speedup_summary.push(format!("d{depth}/rho{rate}={speedup:.2}"));
            if speedup > best_speedup {
                best_speedup = speedup;
                best_config = format!("gcn/d{depth}/rho{rate}");
            }
            println!("d{depth} rho{rate}: scalar/simd epoch speedup {speedup:.2}x");
        }
    }
    if vector_isa != Isa::Scalar {
        assert!(
            best_speedup >= 1.5,
            "SIMD epoch must be >= 1.5x scalar on some config; best was \
             {best_speedup:.2}x ({best_config})"
        );
    } else {
        println!("scalar-only host: speedup assertion skipped");
    }
    simd::force(vector_isa);

    // ---- Part B: cache-locality reordering ----------------------------
    // SpMM over the hub-heavy adjacency, original node order vs RCM. The
    // reordered run multiplies an isomorphic relabeling, so the work is
    // identical; only the memory-access pattern changes.
    let mut reorder_summary = Vec::new();
    for mode in [GraphReorder::DegreeSort, GraphReorder::Rcm] {
        let (rg, _ord) = reorder_graph(&g, mode);
        let radj = rg.gcn_adjacency();
        let mut rng = SplitRng::new(17);
        let x = rng.uniform_matrix(g.num_nodes(), HIDDEN, -1.0, 1.0);
        let mut out = Matrix::zeros(g.num_nodes(), HIDDEN);
        let base_ns = bench
            .run("spmm_order", "original", || {
                full_adj.spmm_into(&x, &mut out)
            })
            .mean_ns;
        let reord_ns = bench
            .run("spmm_order", mode.name(), || radj.spmm_into(&x, &mut out))
            .mean_ns;
        reorder_summary.push(format!("{}={:.2}", mode.name(), base_ns / reord_ns));
    }

    session.meta.extend([
        (
            "graph",
            "planted_partition n=3000 m=15000 power=0.8".to_string(),
        ),
        ("hidden", HIDDEN.to_string()),
        ("vector_isa", vector_isa.name().to_string()),
        ("epoch_speedups", speedup_summary.join(" ")),
        ("best_epoch_speedup", format!("{best_speedup:.2}")),
        ("best_epoch_config", best_config),
        ("spmm_reorder_speedups", reorder_summary.join(" ")),
    ]);
    session.finish("results/BENCH_PR6.json");
}
