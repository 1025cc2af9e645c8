//! Byte-identity of the layer-plan IR against the seed forwards.
//!
//! Every backbone's [`Model::plan`] + [`PlanExecutor`] must reproduce the
//! hand-rolled forward loop it replaced, bit for bit, for every strategy
//! and both train/eval modes. The reference implementations below are
//! line-by-line replicas of the pre-IR forwards on the fully *unfused*
//! op chain (the seed's `fuse = false` path, which the seed's own tests
//! pinned as bit-identical to its fused path). Each case is checked
//! three ways against the reference: plan execution with the fused
//! masked kernel enabled, plan execution with it disabled, and — where
//! SkipNode is active — fused vs unfused directly.
//!
//! The folded layer (a dropout folded into its propagation's SpMM, bias
//! and ReLU into its GEMM) is checked further, through training: a GCN
//! without strategy, a ResGCN and a JKNet give bit-identical losses,
//! parameter gradients and evaluation logits with folding on and off,
//! eagerly and through the compiled program.

use skipnode_autograd::{softmax_cross_entropy, AdjId, NodeId, Tape};
use skipnode_core::{Sampling, SkipNodeConfig};
use skipnode_graph::{
    full_supervised_split, partition_graph, FeatureStyle, Graph, PartitionConfig, Split,
};
use skipnode_nn::models::{build_by_name, BACKBONE_NAMES};
use skipnode_nn::{compile_train_program, ForwardCtx, Model, Strategy, StrategySampler};
use skipnode_sparse::CsrMatrix;
use skipnode_tensor::{Matrix, SplitRng};
use std::collections::HashMap;
use std::sync::Arc;

/// Hyperparameters shared by the builder call and the references.
const DEPTH: usize = 4;
const HIDDEN: usize = 16;
const DROPOUT: f64 = 0.4;
/// Fixed builder constants baked into `build_by_name`.
const APPNP_ALPHA: f32 = 0.1;
const GCNII_ALPHA: f32 = 0.1;
const GCNII_LAMBDA: f64 = 0.5;
const GRAND_DROP_NODE: f64 = 0.5;

fn graph() -> Graph {
    partition_graph(
        &PartitionConfig {
            n: 120,
            m: 500,
            classes: 4,
            homophily: 0.8,
            power: 0.3,
        },
        24,
        FeatureStyle::BinaryBagOfWords {
            active: 6,
            fidelity: 0.9,
            confusion: 0.1,
        },
        &mut SplitRng::new(11),
    )
}

fn strategies() -> Vec<Strategy> {
    vec![
        Strategy::None,
        Strategy::DropEdge { rate: 0.3 },
        Strategy::DropNode { rate: 0.3 },
        Strategy::PairNorm { scale: 1.0 },
        Strategy::SkipNode(SkipNodeConfig::new(0.5, Sampling::Uniform)),
        Strategy::SkipNode(SkipNodeConfig::new(0.5, Sampling::Biased)),
        Strategy::SkipNode(SkipNodeConfig::new(0.5, Sampling::InverseBiased)),
        Strategy::SkipNode(SkipNodeConfig::new(0.5, Sampling::TopDegree)),
        Strategy::SkipNodeTrainEval(SkipNodeConfig::new(0.5, Sampling::Uniform)),
    ]
}

/// Parameter tape nodes looked up by registered name, so references don't
/// depend on the models' private field layout.
fn named_params(model: &dyn Model, binding: &skipnode_nn::Binding) -> HashMap<String, NodeId> {
    model
        .store()
        .ids()
        .into_iter()
        .map(|id| (model.store().name(id).to_string(), binding.node(id)))
        .collect()
}

/// One forward through the model's plan (the production path), with the
/// fused masked kernel on or off.
fn plan_logits(
    model: &dyn Model,
    g: &Graph,
    adj: &Arc<CsrMatrix>,
    strategy: &Strategy,
    train: bool,
    fuse: bool,
) -> Matrix {
    let mut tape = Tape::new();
    let binding = model.store().bind(&mut tape);
    let adj = tape.register_adj(Arc::clone(adj));
    let x = tape.constant_shared(g.features_arc());
    let degrees = g.degrees();
    let mut rng = SplitRng::new(77);
    let mut ctx = ForwardCtx::new(adj, x, &degrees, strategy, train, &mut rng);
    ctx.fuse = fuse;
    let out = model.forward(&mut tape, &binding, &mut ctx);
    tape.value(out).clone()
}

/// One forward through the seed-replica reference for `name`.
fn reference_logits(
    name: &str,
    model: &dyn Model,
    g: &Graph,
    adj: &Arc<CsrMatrix>,
    strategy: &Strategy,
    train: bool,
) -> Matrix {
    let mut tape = Tape::new();
    let binding = model.store().bind(&mut tape);
    let adj = tape.register_adj(Arc::clone(adj));
    let x = tape.constant_shared(g.features_arc());
    let degrees = g.degrees();
    let mut rng = SplitRng::new(77);
    let mut ctx = ForwardCtx::new(adj, x, &degrees, strategy, train, &mut rng);
    let p = named_params(model, &binding);
    let out = match name {
        "gcn" => ref_gcn(&mut tape, &mut ctx, &p, false),
        "resgcn" => ref_gcn(&mut tape, &mut ctx, &p, true),
        "jknet" => ref_jknet(&mut tape, &mut ctx, &p),
        "inceptgcn" => ref_inceptgcn(&mut tape, &mut ctx, &p),
        "gcnii" => ref_gcnii(&mut tape, &mut ctx, &p),
        "appnp" => ref_appnp(&mut tape, &mut ctx, &p),
        "gprgnn" => ref_gprgnn(&mut tape, &mut ctx, &p),
        "grand" => ref_grand(&mut tape, &mut ctx, &p),
        "sgc" => ref_sgc(&mut tape, &mut ctx, &p),
        other => panic!("no reference for {other}"),
    };
    tape.value(out).clone()
}

/// Seed helper replica: `Ã · h · W + b`.
fn conv(tape: &mut Tape, adj: AdjId, h: NodeId, w: NodeId, b: NodeId) -> NodeId {
    let p = tape.spmm(adj, h);
    let z = tape.matmul(p, w);
    tape.add_bias(z, b)
}

/// Seed helper replica: `h · W + b`.
fn dense(tape: &mut Tape, h: NodeId, w: NodeId, b: NodeId) -> NodeId {
    let z = tape.matmul(h, w);
    tape.add_bias(z, b)
}

/// Seed helper replica: the unfused activated middle layer
/// `post_conv(relu(conv(h_in)), h_prev)`.
fn conv_activated(
    tape: &mut Tape,
    ctx: &mut ForwardCtx,
    h_in: NodeId,
    h_prev: NodeId,
    w: NodeId,
    b: NodeId,
) -> NodeId {
    let z = conv(tape, ctx.adj, h_in, w, b);
    let a = tape.relu(z);
    ctx.post_conv(tape, a, h_prev)
}

fn ref_gcn(
    tape: &mut Tape,
    ctx: &mut ForwardCtx,
    p: &HashMap<String, NodeId>,
    residual: bool,
) -> NodeId {
    let layers = DEPTH;
    let mut h = ctx.x;
    for l in 0..layers {
        let last = l == layers - 1;
        if last {
            ctx.penultimate = Some(h);
        }
        let (w, b) = (p[&format!("w{l}")], p[&format!("b{l}")]);
        let h_in = ctx.dropout(tape, h, DROPOUT);
        if last {
            h = conv(tape, ctx.adj, h_in, w, b);
        } else if residual {
            let z = conv(tape, ctx.adj, h_in, w, b);
            let mut a = tape.relu(z);
            if tape.shape(a) == tape.shape(h) {
                a = tape.add(a, h);
            }
            h = ctx.post_conv(tape, a, h);
        } else {
            h = conv_activated(tape, ctx, h_in, h, w, b);
        }
    }
    h
}

fn ref_jknet(tape: &mut Tape, ctx: &mut ForwardCtx, p: &HashMap<String, NodeId>) -> NodeId {
    let mut h = ctx.x;
    let mut collected = Vec::with_capacity(DEPTH);
    for l in 0..DEPTH {
        let h_in = ctx.dropout(tape, h, DROPOUT);
        let a = conv_activated(tape, ctx, h_in, h, p[&format!("w{l}")], p[&format!("b{l}")]);
        collected.push(a);
        h = a;
    }
    let rep = tape.concat_cols(&collected);
    ctx.penultimate = Some(rep);
    let rep = ctx.dropout(tape, rep, DROPOUT);
    dense(tape, rep, p["out_w"], p["out_b"])
}

fn ref_inceptgcn(tape: &mut Tape, ctx: &mut ForwardCtx, p: &HashMap<String, NodeId>) -> NodeId {
    // Branch depths for layers = DEPTH = 4: b = min(4, 4) towers of
    // depths round(4·i/4) = 1, 2, 3, 4 — the seed's spread formula.
    let branches = 4usize.min(DEPTH);
    let depths: Vec<usize> = (1..=branches)
        .map(|i| ((DEPTH * i) as f64 / branches as f64).round().max(1.0) as usize)
        .collect();
    let mut outs = Vec::with_capacity(branches);
    for (bi, &depth) in depths.iter().enumerate() {
        let mut h = ctx.x;
        for l in 0..depth {
            let h_in = ctx.dropout(tape, h, DROPOUT);
            let z = conv(
                tape,
                ctx.adj,
                h_in,
                p[&format!("b{bi}_w{l}")],
                p[&format!("b{bi}_b{l}")],
            );
            let a = tape.relu(z);
            h = ctx.post_conv(tape, a, h);
        }
        outs.push(h);
    }
    let rep = tape.concat_cols(&outs);
    ctx.penultimate = Some(rep);
    let rep = ctx.dropout(tape, rep, DROPOUT);
    dense(tape, rep, p["out_w"], p["out_b"])
}

fn ref_gcnii(tape: &mut Tape, ctx: &mut ForwardCtx, p: &HashMap<String, NodeId>) -> NodeId {
    let x = ctx.dropout(tape, ctx.x, DROPOUT);
    let h0 = {
        let z = dense(tape, x, p["in_w"], p["in_b"]);
        tape.relu(z)
    };
    let mut h = h0;
    for l in 0..DEPTH {
        let beta = (GCNII_LAMBDA / (l + 1) as f64 + 1.0).ln() as f32;
        let h_in = ctx.dropout(tape, h, DROPOUT);
        let prop = tape.spmm(ctx.adj, h_in);
        let support = tape.lin_comb(&[(prop, 1.0 - GCNII_ALPHA), (h0, GCNII_ALPHA)]);
        let sw = tape.matmul(support, p[&format!("w{l}")]);
        let z = tape.lin_comb(&[(support, 1.0 - beta), (sw, beta)]);
        let a = tape.relu(z);
        h = ctx.post_conv(tape, a, h);
    }
    ctx.penultimate = Some(h);
    let h = ctx.dropout(tape, h, DROPOUT);
    dense(tape, h, p["out_w"], p["out_b"])
}

fn ref_appnp(tape: &mut Tape, ctx: &mut ForwardCtx, p: &HashMap<String, NodeId>) -> NodeId {
    let x = ctx.dropout(tape, ctx.x, DROPOUT);
    let h = dense(tape, x, p["w1"], p["b1"]);
    let h = tape.relu(h);
    ctx.penultimate = Some(h);
    let h = ctx.dropout(tape, h, DROPOUT);
    let h0 = dense(tape, h, p["w2"], p["b2"]);
    let mut z = h0;
    for _ in 0..DEPTH {
        let z_prev = z;
        let prop = tape.spmm(ctx.adj, z);
        let step = tape.lin_comb(&[(prop, 1.0 - APPNP_ALPHA), (h0, APPNP_ALPHA)]);
        z = ctx.post_conv(tape, step, z_prev);
    }
    z
}

fn ref_gprgnn(tape: &mut Tape, ctx: &mut ForwardCtx, p: &HashMap<String, NodeId>) -> NodeId {
    let x = ctx.dropout(tape, ctx.x, DROPOUT);
    let h = dense(tape, x, p["w1"], p["b1"]);
    let h = tape.relu(h);
    ctx.penultimate = Some(h);
    let h = ctx.dropout(tape, h, DROPOUT);
    let h0 = dense(tape, h, p["w2"], p["b2"]);
    let mut hops = Vec::with_capacity(DEPTH + 1);
    hops.push(h0);
    let mut z = h0;
    for _ in 0..DEPTH {
        let z_prev = z;
        let prop = tape.spmm(ctx.adj, z);
        z = ctx.post_conv(tape, prop, z_prev);
        hops.push(z);
    }
    tape.weighted_sum(&hops, p["gamma"])
}

fn ref_grand(tape: &mut Tape, ctx: &mut ForwardCtx, p: &HashMap<String, NodeId>) -> NodeId {
    let x = if ctx.train && GRAND_DROP_NODE > 0.0 {
        tape.dropout_rows(ctx.x, GRAND_DROP_NODE, ctx.rng)
    } else {
        ctx.x
    };
    let mut powers = Vec::with_capacity(DEPTH + 1);
    powers.push(x);
    let mut z = x;
    for _ in 0..DEPTH {
        let z_prev = z;
        let prop = tape.spmm(ctx.adj, z);
        z = ctx.post_conv(tape, prop, z_prev);
        powers.push(z);
    }
    let coef = 1.0 / (DEPTH + 1) as f32;
    let parts: Vec<(NodeId, f32)> = powers.into_iter().map(|pw| (pw, coef)).collect();
    let xbar = tape.lin_comb(&parts);
    let h_in = ctx.dropout(tape, xbar, DROPOUT);
    let h = dense(tape, h_in, p["w1"], p["b1"]);
    let h = tape.relu(h);
    ctx.penultimate = Some(h);
    let h = ctx.dropout(tape, h, DROPOUT);
    dense(tape, h, p["w2"], p["b2"])
}

fn ref_sgc(tape: &mut Tape, ctx: &mut ForwardCtx, p: &HashMap<String, NodeId>) -> NodeId {
    let mut h = ctx.x;
    for _ in 0..DEPTH {
        let h_prev = h;
        let prop = tape.spmm(ctx.adj, h);
        h = ctx.post_conv(tape, prop, h_prev);
    }
    ctx.penultimate = Some(h);
    let h = ctx.dropout(tape, h, DROPOUT);
    dense(tape, h, p["w"], p["b"])
}

fn assert_bitwise(label: &str, want: &Matrix, got: &Matrix) {
    assert_eq!(want.shape(), got.shape(), "{label}: shape mismatch");
    assert_eq!(
        want.as_slice(),
        got.as_slice(),
        "{label}: logits are not byte-identical"
    );
}

#[test]
fn plans_reproduce_seed_logits_for_every_backbone_and_strategy() {
    let g = graph();
    let full = g.gcn_adjacency();
    for name in BACKBONE_NAMES {
        let mut rng = SplitRng::new(13);
        let model = build_by_name(
            name,
            g.feature_dim(),
            HIDDEN,
            g.num_classes(),
            DEPTH,
            DROPOUT,
            &mut rng,
        )
        .expect("known backbone");
        for strategy in strategies() {
            for train in [false, true] {
                // Graph-modifying strategies resample the adjacency per
                // epoch; all three forwards of a case must share it.
                let mut adj_rng = SplitRng::new(91);
                let adj = strategy.epoch_adjacency(&g, &full, train, &mut adj_rng);
                let label = format!(
                    "{name} × {} × {}",
                    strategy.label(),
                    if train { "train" } else { "eval" }
                );
                let want = reference_logits(name, model.as_ref(), &g, &adj, &strategy, train);
                let unfused = plan_logits(model.as_ref(), &g, &adj, &strategy, train, false);
                assert_bitwise(&format!("{label} (unfused)"), &want, &unfused);
                let fused = plan_logits(model.as_ref(), &g, &adj, &strategy, train, true);
                assert_bitwise(&format!("{label} (fused)"), &want, &fused);
            }
        }
    }
}

// Fused-coverage row-work assertions live in `tests/fused_coverage.rs`:
// the SpMM row counter is process-global, so that test keeps a binary to
// itself (same convention as `crates/autograd/tests/work_scaling.rs`).

/// One training step's loss and parameter gradients, in store order.
struct Step {
    loss: f64,
    grads: Vec<Matrix>,
}

/// `epochs` training steps of `model` (parameters fixed) from the epoch
/// seeds `100 + e`: eagerly recorded tapes, or one compiled program
/// replayed, with folding on (`fuse`) or off.
fn train_steps(
    model: &dyn Model,
    g: &Graph,
    split: &Split,
    compiled: bool,
    fuse: bool,
    epochs: u64,
) -> Vec<Step> {
    let adj = g.gcn_adjacency();
    let degrees = g.degrees();
    let strategy = Strategy::None;
    let mut program = compiled.then(|| {
        compile_train_program(model, g, &adj, &strategy, fuse).expect("plan backbone compiles")
    });
    (0..epochs)
        .map(|e| {
            let mut rng = SplitRng::new(100 + e);
            let seed_of = |logits: &Matrix| {
                let out = softmax_cross_entropy(logits, g.labels(), &split.train);
                (out.loss, out.grad)
            };
            let (loss, grads) = match program.as_mut() {
                Some(program) => {
                    program.set_adjacency(Arc::clone(&adj));
                    program.load_params(model.store().values());
                    let mut sampler = StrategySampler::new(&strategy, &degrees);
                    program.begin_epoch(&mut sampler, &mut rng);
                    program.replay_forward();
                    let head = program.heads()[0];
                    let (loss, seed) = seed_of(program.value(head));
                    let grads = program.backward(vec![(head, seed)]);
                    (loss, grads.into_iter().map(|g| g.expect("grad")).collect())
                }
                None => {
                    let mut tape = Tape::new();
                    let binding = model.store().bind(&mut tape);
                    let adj_id = tape.register_adj(Arc::clone(&adj));
                    let x = tape.constant_shared(g.features_arc());
                    let mut ctx = ForwardCtx::new(adj_id, x, &degrees, &strategy, true, &mut rng);
                    ctx.fuse = fuse;
                    let out = model.forward(&mut tape, &binding, &mut ctx);
                    let (loss, seed) = seed_of(tape.value(out));
                    let mut grads = tape.backward(out, seed);
                    let grads = binding
                        .nodes()
                        .iter()
                        .map(|&n| grads.take(n).expect("grad"));
                    (loss, grads.collect())
                }
            };
            Step { loss, grads }
        })
        .collect()
}

/// Evaluation logits on a no-grad inference tape, folding on or off.
fn eval_logits(model: &dyn Model, g: &Graph, fuse: bool) -> Matrix {
    let mut tape = Tape::inference();
    let binding = model.store().bind(&mut tape);
    let adj = tape.register_adj(g.gcn_adjacency());
    let x = tape.constant_shared(g.features_arc());
    let degrees = g.degrees();
    let mut rng = SplitRng::new(5);
    let mut ctx = ForwardCtx::new(adj, x, &degrees, &Strategy::None, false, &mut rng);
    ctx.fuse = fuse;
    let out = model.forward(&mut tape, &binding, &mut ctx);
    tape.run(&[out]);
    tape.take_value(out)
}

#[test]
fn folded_layers_match_the_op_chain_in_losses_gradients_and_evaluation() {
    let g = graph();
    for name in ["gcn", "resgcn", "jknet"] {
        let mut rng = SplitRng::new(17);
        let split = full_supervised_split(&g, &mut rng);
        let model = build_by_name(
            name,
            g.feature_dim(),
            HIDDEN,
            g.num_classes(),
            DEPTH,
            DROPOUT,
            &mut rng,
        )
        .expect("known backbone");
        let want = train_steps(model.as_ref(), &g, &split, false, false, 3);
        for (compiled, fuse) in [(false, true), (true, true), (true, false)] {
            let got = train_steps(model.as_ref(), &g, &split, compiled, fuse, 3);
            let engine = if compiled { "compiled" } else { "eager" };
            for (e, (w, o)) in want.iter().zip(&got).enumerate() {
                let label = format!("{name} {engine} fuse={fuse} epoch {e}");
                assert_eq!(w.loss.to_bits(), o.loss.to_bits(), "{label}: loss");
                assert_eq!(w.grads.len(), o.grads.len(), "{label}: gradient count");
                for (i, (wg, og)) in w.grads.iter().zip(&o.grads).enumerate() {
                    assert_bitwise(&format!("{label}: gradient {i}"), wg, og);
                }
            }
        }
        let want = eval_logits(model.as_ref(), &g, false);
        assert_bitwise(
            &format!("{name} evaluation"),
            &want,
            &eval_logits(model.as_ref(), &g, true),
        );
    }
}
