//! The layer-plan IR: one declarative program format every backbone
//! compiles itself into, and one executor that runs it.
//!
//! The paper's claim is that SkipNode is *plug-and-play* across deep GCN
//! backbones. Before this module, each backbone hand-rolled its own
//! forward loop, so strategy injection, dropout placement, fused-kernel
//! selection, and RNG-stream ordering were re-implemented nine times —
//! and the fused masked kernel ([`Tape::skip_conv_step`]) only fired for
//! the two backbones that happened to call the right helper. Now each
//! backbone's [`crate::models::Model::plan`] emits a [`LayerPlan`] of
//! typed ops and [`PlanExecutor`] owns all of those concerns in exactly
//! one place:
//!
//! - **Strategy injection** — every activated convolution and propagation
//!   step routes through [`ForwardCtx::post_conv`], so PairNorm and the
//!   SkipNode row-combine apply uniformly.
//! - **Fused-kernel selection** — [`PlanOp::ActivatedConv`] consults
//!   [`ForwardCtx::fused_skip_mask`] and dispatches the whole step
//!   (initial residual, identity map, bias, post-activation residual and
//!   all) to the masked kernel whenever SkipNode is active and shapes
//!   allow, falling back to the canonical unfused op chain otherwise.
//!   Both paths are bit-identical and draw identically from the RNG.
//! - **Sparse input selection** — a dropout of the input features fuses
//!   with the `Conv`, `Dense` or (unfused) `ActivatedConv` that alone
//!   reads it into one [`Tape::sparse_input`] over the features' stored
//!   entries, when [`Tape::sparse_features`] accepts them. Bit-identical
//!   to the dense chain, same RNG draws.
//! - **Inference parity by construction** — eager and
//!   [`Tape::inference`] forwards execute the *same* plan, so the no-grad
//!   engine can never drift from training semantics.
//!
//! A plan is a register machine: [`Reg`]`(0)` is the input features
//! (`ctx.x`), and op `k` (0-based) defines `Reg(k + 1)`. Ops that are
//! identity at runtime (evaluation-mode dropout, [`PlanOp::Penultimate`])
//! still define their register — it aliases the source node — so register
//! numbering is static and plans stay position-independent of strategy or
//! train/eval mode.
//!
//! Having a plan is also the trainer's compilation contract: tape
//! topology depends only on the plan and strategy, never on drawn values,
//! which is what lets [`crate::engine::compile_train_program`] record one
//! probe forward and compile it into an epoch-resident
//! [`skipnode_autograd::TrainProgram`] (see `DESIGN.md` §10). Plan-less
//! bespoke models (GAT) train on the eager per-epoch tape instead.

use crate::context::ForwardCtx;
use crate::models::JkAggregate;
use crate::param::{Binding, ParamId};
use skipnode_autograd::{FusedStep, NodeId, Tape};
use skipnode_sparse::CsrMatrix;
use skipnode_tensor::ReadoutKind;
use std::sync::Arc;

/// A virtual register in a [`LayerPlan`]. `Reg(0)` is the input feature
/// matrix; op `k` defines `Reg(k + 1)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reg(pub usize);

/// One typed step of a [`LayerPlan`].
///
/// Every op consumes registers defined earlier and defines exactly one new
/// register. Shapes are resolved at execution time against the tape, so
/// one op form serves every width (e.g. the shape-gated residual of
/// ResGCN's first middle layer).
#[derive(Debug, Clone)]
pub enum PlanOp {
    /// Training-time inverted dropout (identity at eval or rate 0).
    Dropout {
        /// Input register.
        src: Reg,
        /// Drop probability.
        rate: f64,
    },
    /// Training-time row dropout (GRAND's DropNode-as-augmentation;
    /// identity at eval or rate 0).
    DropRows {
        /// Input register.
        src: Reg,
        /// Row-drop probability.
        rate: f64,
    },
    /// Plain graph convolution `Ã · h · W + b` with no activation — the
    /// classification layer of GCN-family stacks.
    Conv {
        /// Input register.
        src: Reg,
        /// Weight parameter (`d_in × d_out`).
        w: ParamId,
        /// Bias parameter (`1 × d_out`).
        b: ParamId,
    },
    /// One *activated middle layer*: the generalized step
    /// `post_conv(relu(support · W̃ [+ b]) [+ residual], carry)` where
    /// `support = (1-α)·Ã·src + α·h0` when an initial residual is present
    /// (plain `Ã·src` otherwise) and `W̃ = (1-β)·I + β·W` when the
    /// identity map is (GCNII). This is the op the fused masked kernel
    /// serves: when SkipNode is active and the step is hidden→hidden, the
    /// whole thing runs as one [`Tape::skip_conv_step`] and skipped rows
    /// never enter the SpMM/GEMM.
    ActivatedConv {
        /// Input register (typically the dropout output).
        src: Reg,
        /// The carry — previous layer output; SkipNode's skip branch and
        /// `post_conv`'s comparison operand.
        carry: Reg,
        /// Weight parameter.
        w: ParamId,
        /// Optional bias parameter (GCNII's middle layers have none).
        b: Option<ParamId>,
        /// GCNII initial residual: mix `α · h0` into the propagation.
        init_residual: Option<(Reg, f32)>,
        /// GCNII identity map strength `β_l` (requires square `W`).
        identity_map: Option<f32>,
        /// ResGCN skip connection added *after* the ReLU — applied only
        /// when its shape matches the conv output (seed semantics).
        residual: Option<Reg>,
    },
    /// Dense layer `h · W + b`.
    Dense {
        /// Input register.
        src: Reg,
        /// Weight parameter.
        w: ParamId,
        /// Bias parameter.
        b: ParamId,
    },
    /// Elementwise ReLU.
    Relu {
        /// Input register.
        src: Reg,
    },
    /// One weightless propagation step
    /// `post_conv(Ã·src [teleport-mixed], carry)` — APPNP / GPRGNN /
    /// GRAND / SGC diffusion.
    Propagate {
        /// Input register.
        src: Reg,
        /// Previous step's output (the SkipNode skip branch).
        carry: Reg,
        /// APPNP teleport: mix `α · h0` back in after the SpMM.
        teleport: Option<(Reg, f32)>,
    },
    /// Fixed-coefficient linear combination (GRAND's power mean).
    LinComb {
        /// `(register, coefficient)` parts, in evaluation order.
        parts: Vec<(Reg, f32)>,
    },
    /// Learnable-weight sum `Σ_k γ_k · parts[k]` (GPRGNN).
    WeightedSum {
        /// Hop registers.
        parts: Vec<Reg>,
        /// The `1 × K` weight parameter.
        w: ParamId,
    },
    /// Jumping-knowledge aggregation across layer outputs (JKNet,
    /// InceptGCN's branch concat).
    Aggregate {
        /// Per-layer (or per-branch) registers.
        parts: Vec<Reg>,
        /// Fusion mode.
        kind: JkAggregate,
    },
    /// Record `src` as the penultimate representation
    /// ([`ForwardCtx::penultimate`]); the defined register aliases `src`.
    Penultimate {
        /// The representation before the classification layer.
        src: Reg,
    },
    /// Per-graph pooling over a packed multi-graph batch: reduce each
    /// segment of `src`'s rows (one segment per graph, from
    /// [`ForwardCtx::segments`]) to a single row. Turns `total_nodes × d`
    /// node embeddings into `num_graphs × d` graph embeddings — the bridge
    /// from node-level convolution to graph-level classification.
    Readout {
        /// Input register (node embeddings).
        src: Reg,
        /// Reduction applied within each segment.
        kind: ReadoutKind,
    },
}

impl PlanOp {
    /// Visit every register this op reads.
    fn reads(&self, f: &mut dyn FnMut(Reg)) {
        match self {
            PlanOp::Dropout { src, .. }
            | PlanOp::DropRows { src, .. }
            | PlanOp::Conv { src, .. }
            | PlanOp::Dense { src, .. }
            | PlanOp::Relu { src }
            | PlanOp::Penultimate { src }
            | PlanOp::Readout { src, .. } => f(*src),
            PlanOp::ActivatedConv {
                src,
                carry,
                init_residual,
                residual,
                ..
            } => {
                f(*src);
                f(*carry);
                if let Some((h0, _)) = init_residual {
                    f(*h0);
                }
                if let Some(res) = residual {
                    f(*res);
                }
            }
            PlanOp::Propagate {
                src,
                carry,
                teleport,
            } => {
                f(*src);
                f(*carry);
                if let Some((h0, _)) = teleport {
                    f(*h0);
                }
            }
            PlanOp::LinComb { parts } => parts.iter().for_each(|&(p, _)| f(p)),
            PlanOp::WeightedSum { parts, .. } | PlanOp::Aggregate { parts, .. } => {
                parts.iter().for_each(|&p| f(p))
            }
        }
    }
}

/// A compiled forward pass: a straight-line program of [`PlanOp`]s plus
/// the register holding the logits.
#[derive(Debug, Clone)]
pub struct LayerPlan {
    /// The ops, in execution order.
    pub ops: Vec<PlanOp>,
    /// The register whose value is the forward output.
    pub output: Reg,
}

/// Builder for [`LayerPlan`]s: each method appends one op and returns the
/// register it defines, so backbone `plan()` implementations read like
/// the forward loops they replace.
#[derive(Default)]
pub struct PlanBuilder {
    ops: Vec<PlanOp>,
}

impl PlanBuilder {
    /// Fresh builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// The input feature register (`ctx.x`).
    pub fn input() -> Reg {
        Reg(0)
    }

    fn push(&mut self, op: PlanOp) -> Reg {
        self.ops.push(op);
        Reg(self.ops.len())
    }

    /// Append a [`PlanOp::Dropout`].
    pub fn dropout(&mut self, src: Reg, rate: f64) -> Reg {
        self.push(PlanOp::Dropout { src, rate })
    }

    /// Append a [`PlanOp::DropRows`].
    pub fn drop_rows(&mut self, src: Reg, rate: f64) -> Reg {
        self.push(PlanOp::DropRows { src, rate })
    }

    /// Append a [`PlanOp::Conv`].
    pub fn conv(&mut self, src: Reg, w: ParamId, b: ParamId) -> Reg {
        self.push(PlanOp::Conv { src, w, b })
    }

    /// Append a plain [`PlanOp::ActivatedConv`] (bias, no residuals).
    pub fn activated_conv(&mut self, src: Reg, carry: Reg, w: ParamId, b: ParamId) -> Reg {
        self.push(PlanOp::ActivatedConv {
            src,
            carry,
            w,
            b: Some(b),
            init_residual: None,
            identity_map: None,
            residual: None,
        })
    }

    /// Append an [`PlanOp::ActivatedConv`] with a post-activation skip
    /// connection (ResGCN).
    pub fn activated_conv_residual(
        &mut self,
        src: Reg,
        carry: Reg,
        w: ParamId,
        b: ParamId,
        residual: Reg,
    ) -> Reg {
        self.push(PlanOp::ActivatedConv {
            src,
            carry,
            w,
            b: Some(b),
            init_residual: None,
            identity_map: None,
            residual: Some(residual),
        })
    }

    /// Append a GCNII-style [`PlanOp::ActivatedConv`]: initial residual
    /// `α · h0`, identity map `β`, no bias.
    pub fn activated_conv_gcnii(
        &mut self,
        src: Reg,
        carry: Reg,
        w: ParamId,
        h0: Reg,
        alpha: f32,
        beta: f32,
    ) -> Reg {
        self.push(PlanOp::ActivatedConv {
            src,
            carry,
            w,
            b: None,
            init_residual: Some((h0, alpha)),
            identity_map: Some(beta),
            residual: None,
        })
    }

    /// Append a [`PlanOp::Dense`].
    pub fn dense(&mut self, src: Reg, w: ParamId, b: ParamId) -> Reg {
        self.push(PlanOp::Dense { src, w, b })
    }

    /// Append a [`PlanOp::Relu`].
    pub fn relu(&mut self, src: Reg) -> Reg {
        self.push(PlanOp::Relu { src })
    }

    /// Append a [`PlanOp::Propagate`].
    pub fn propagate(&mut self, src: Reg, carry: Reg, teleport: Option<(Reg, f32)>) -> Reg {
        self.push(PlanOp::Propagate {
            src,
            carry,
            teleport,
        })
    }

    /// Append a [`PlanOp::LinComb`].
    pub fn lin_comb(&mut self, parts: Vec<(Reg, f32)>) -> Reg {
        self.push(PlanOp::LinComb { parts })
    }

    /// Append a [`PlanOp::WeightedSum`].
    pub fn weighted_sum(&mut self, parts: Vec<Reg>, w: ParamId) -> Reg {
        self.push(PlanOp::WeightedSum { parts, w })
    }

    /// Append a [`PlanOp::Aggregate`].
    pub fn aggregate(&mut self, parts: Vec<Reg>, kind: JkAggregate) -> Reg {
        self.push(PlanOp::Aggregate { parts, kind })
    }

    /// Append a [`PlanOp::Penultimate`] marker.
    pub fn penultimate(&mut self, src: Reg) -> Reg {
        self.push(PlanOp::Penultimate { src })
    }

    /// Append a [`PlanOp::Readout`].
    pub fn readout(&mut self, src: Reg, kind: ReadoutKind) -> Reg {
        self.push(PlanOp::Readout { src, kind })
    }

    /// Seal the plan with its output register.
    pub fn finish(self, output: Reg) -> LayerPlan {
        LayerPlan {
            ops: self.ops,
            output,
        }
    }
}

/// Walks a [`LayerPlan`] against a tape and forward context. One executor
/// serves eager training tapes and deferred [`Tape::inference`] tapes
/// alike — parity is by construction, both run the identical program.
pub struct PlanExecutor;

impl PlanExecutor {
    /// Execute `plan`, returning the tape node of its output register.
    ///
    /// # Panics
    /// Panics if an op reads a register that has not been defined yet
    /// (malformed plan) or on tape-level shape mismatches.
    pub fn run(
        plan: &LayerPlan,
        tape: &mut Tape,
        binding: &Binding,
        ctx: &mut ForwardCtx,
    ) -> NodeId {
        let mut regs: Vec<NodeId> = Vec::with_capacity(plan.ops.len() + 1);
        regs.push(ctx.x);
        // The input's stored entries, built at most once per run.
        let mut features: Option<Option<Arc<CsrMatrix>>> = None;
        let mut sparse = None;
        for (k, op) in plan.ops.iter().enumerate() {
            if let Some(rate) = sparse_input_rate(plan, k, &regs, tape, binding, ctx) {
                if let Some(xs) = features.get_or_insert_with(|| tape.sparse_features(ctx.x)) {
                    // The reader, the next op, draws this dropout's flags:
                    // nothing draws in between, so the stream is unchanged.
                    sparse = Some(SparseInput {
                        xs: Arc::clone(xs),
                        rate: if ctx.train { rate } else { 0.0 },
                    });
                    // The register is never read: its one reader is fused.
                    regs.push(ctx.x);
                    continue;
                }
            }
            let node = exec_op(op, &regs, tape, binding, ctx, sparse.take());
            regs.push(node);
        }
        regs[plan.output.0]
    }
}

/// A dropout of the input features deferred to the op that reads it, which
/// then runs as one [`Tape::sparse_input`] over the stored entries `xs`.
struct SparseInput {
    xs: Arc<CsrMatrix>,
    /// `0` at evaluation: no flags are drawn.
    rate: f64,
}

/// The rate of op `k` when it is a dropout of the input features (`Reg(0)`)
/// that the next op can fuse into one [`Tape::sparse_input`]. Decided from
/// the plan and shapes before anything is drawn: the next op must be the
/// dropout register's only reader (and the register not the plan output),
/// reading it as the input of a `Conv`, a `Dense`, or an `ActivatedConv`
/// with no initial residual or identity map that will not take the fused
/// SkipNode kernel. Whether the features themselves qualify is
/// [`Tape::sparse_features`]'s call.
fn sparse_input_rate(
    plan: &LayerPlan,
    k: usize,
    regs: &[NodeId],
    tape: &Tape,
    binding: &Binding,
    ctx: &ForwardCtx,
) -> Option<f64> {
    let PlanOp::Dropout { src: Reg(0), rate } = plan.ops[k] else {
        return None;
    };
    let reg = Reg(k + 1);
    let mut readers = 0;
    for op in &plan.ops {
        op.reads(&mut |r| readers += usize::from(r == reg));
    }
    if readers != 1 || plan.output == reg {
        return None;
    }
    match plan.ops.get(k + 1)? {
        PlanOp::Conv { src, .. } | PlanOp::Dense { src, .. } if *src == reg => Some(rate),
        PlanOp::ActivatedConv {
            src,
            carry,
            w,
            init_residual: None,
            identity_map: None,
            ..
        } if *src == reg => {
            let conv_shape = (tape.shape(ctx.x).0, tape.shape(binding.node(*w)).1);
            let carry_shape = tape.shape(regs[carry.0]);
            let fuses = ctx.fused_skip_config(conv_shape, carry_shape).is_some();
            (!fuses).then_some(rate)
        }
        _ => None,
    }
}

/// Execute one op; `sparse` is the deferred input dropout when `op` reads
/// it (see [`sparse_input_rate`]).
fn exec_op(
    op: &PlanOp,
    regs: &[NodeId],
    tape: &mut Tape,
    binding: &Binding,
    ctx: &mut ForwardCtx,
    sparse: Option<SparseInput>,
) -> NodeId {
    let r = |reg: Reg| regs[reg.0];
    match op {
        PlanOp::Dropout { src, rate } => ctx.dropout(tape, r(*src), *rate),
        PlanOp::DropRows { src, rate } => {
            if ctx.train && *rate > 0.0 {
                tape.dropout_rows(r(*src), *rate, ctx.rng)
            } else {
                r(*src)
            }
        }
        PlanOp::Conv { src, w, b } => {
            let wn = binding.node(*w);
            let z = match sparse {
                Some(s) => tape.sparse_input(s.xs, Some(ctx.adj), wn, s.rate, ctx.rng),
                None => {
                    let p = tape.spmm(ctx.adj, r(*src));
                    tape.matmul(p, wn)
                }
            };
            tape.add_bias(z, binding.node(*b))
        }
        PlanOp::ActivatedConv {
            src,
            carry,
            w,
            b,
            init_residual,
            identity_map,
            residual,
        } => exec_activated_conv(
            tape,
            binding,
            ctx,
            r(*src),
            r(*carry),
            *w,
            *b,
            init_residual.map(|(h0, a)| (r(h0), a)),
            *identity_map,
            residual.map(&r),
            sparse,
        ),
        PlanOp::Dense { src, w, b } => {
            let wn = binding.node(*w);
            let z = match sparse {
                Some(s) => tape.sparse_input(s.xs, None, wn, s.rate, ctx.rng),
                None => tape.matmul(r(*src), wn),
            };
            tape.add_bias(z, binding.node(*b))
        }
        PlanOp::Relu { src } => tape.relu(r(*src)),
        PlanOp::Propagate {
            src,
            carry,
            teleport,
        } => {
            let p = tape.spmm(ctx.adj, r(*src));
            let step = match teleport {
                Some((h0, alpha)) => tape.lin_comb(&[(p, 1.0 - alpha), (r(*h0), *alpha)]),
                None => p,
            };
            ctx.post_conv(tape, step, r(*carry))
        }
        PlanOp::LinComb { parts } => {
            let parts: Vec<(NodeId, f32)> = parts.iter().map(|&(p, c)| (r(p), c)).collect();
            tape.lin_comb(&parts)
        }
        PlanOp::WeightedSum { parts, w } => {
            let nodes: Vec<NodeId> = parts.iter().map(|&p| r(p)).collect();
            tape.weighted_sum(&nodes, binding.node(*w))
        }
        PlanOp::Aggregate { parts, kind } => {
            let nodes: Vec<NodeId> = parts.iter().map(|&p| r(p)).collect();
            match kind {
                JkAggregate::Concat => tape.concat_cols(&nodes),
                JkAggregate::MaxPool => tape.max_pool(&nodes),
            }
        }
        PlanOp::Penultimate { src } => {
            let node = r(*src);
            ctx.penultimate = Some(node);
            node
        }
        PlanOp::Readout { src, kind } => {
            let seg = ctx
                .segments
                .expect("PlanOp::Readout requires a segment-aware ForwardCtx (packed batch)");
            tape.readout(r(*src), *kind, seg)
        }
    }
}

/// The activated-middle-layer step, fused or unfused.
///
/// The unfused chain is the *canonical* op order every strategy sees:
/// `spmm → [init-residual lin_comb] → matmul → [identity-map lin_comb] →
/// [add_bias] → relu → [residual add] → post_conv`. The fused kernel
/// replays the same scalar operations in the same order on the active
/// rows only, so the two paths are bit-identical and consume identical
/// RNG streams (the skip mask is drawn at the position `post_conv` would
/// draw it). With `sparse`, the `spmm → matmul` head runs as one
/// [`Tape::sparse_input`] that also draws the deferred input dropout.
#[allow(clippy::too_many_arguments)]
fn exec_activated_conv(
    tape: &mut Tape,
    binding: &Binding,
    ctx: &mut ForwardCtx,
    src: NodeId,
    carry: NodeId,
    w: ParamId,
    b: Option<ParamId>,
    init_residual: Option<(NodeId, f32)>,
    identity_map: Option<f32>,
    residual: Option<NodeId>,
    sparse: Option<SparseInput>,
) -> NodeId {
    let wn = binding.node(w);
    let bn = b.map(|b| binding.node(b));
    let conv_shape = (tape.shape(src).0, tape.shape(wn).1);
    let carry_shape = tape.shape(carry);
    // Seed semantics: the skip connection applies only when its shape
    // already matches the conv output (ResGCN's first middle layer widens
    // in→hidden and goes without).
    let residual = residual.filter(|&res| tape.shape(res) == conv_shape);
    if let Some(mask) = ctx.fused_skip_mask(conv_shape, carry_shape) {
        debug_assert!(
            sparse.is_none(),
            "a fused layer never reads the sparse input"
        );
        return tape.skip_conv_step(
            ctx.adj,
            FusedStep {
                x: src,
                skip: carry,
                w: wn,
                b: bn,
                init_residual,
                identity_map,
                residual,
            },
            &mask,
        );
    }
    let z = match sparse {
        // Chosen only without an initial residual or identity map.
        Some(s) => tape.sparse_input(s.xs, Some(ctx.adj), wn, s.rate, ctx.rng),
        None => {
            let p = tape.spmm(ctx.adj, src);
            let support = match init_residual {
                Some((h0, alpha)) => tape.lin_comb(&[(p, 1.0 - alpha), (h0, alpha)]),
                None => p,
            };
            let t = tape.matmul(support, wn);
            match identity_map {
                Some(beta) => tape.lin_comb(&[(support, 1.0 - beta), (t, beta)]),
                None => t,
            }
        }
    };
    let z = match bn {
        Some(bn) => tape.add_bias(z, bn),
        None => z,
    };
    let a = tape.relu(z);
    let a = match residual {
        Some(res) => tape.add(a, res),
        None => a,
    };
    ctx.post_conv(tape, a, carry)
}
