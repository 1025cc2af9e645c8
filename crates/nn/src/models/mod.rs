//! The backbone zoo: every model the paper evaluates.
//!
//! | Backbone | Paper ref | Depth knob |
//! |---|---|---|
//! | [`Gcn`] | Kipf & Welling \[5\] | stacked convolutions |
//! | [`Gcn::residual`] (ResGCN) | \[5\]+\[33\] | stacked convolutions + skips |
//! | [`JkNet`] | Xu et al. \[6\] | convolutions, jumping concat |
//! | [`InceptGcn`] | Kazi et al. \[28\] | parallel branches up to depth L |
//! | [`Gcnii`] | Chen et al. \[9\] | initial residual + identity map |
//! | [`Appnp`] | Klicpera et al. \[8\] | personalized-PageRank steps |
//! | [`GprGnn`] | Chien et al. \[7\] | learnable propagation weights |
//! | [`Grand`] | Feng et al. \[10\] | random-propagation order |
//! | [`Sgc`] | Wu et al. \[20\] | linear propagation hops |
//! | [`Gat`] | Veličković et al. \[42\] | attention layers (beyond-paper) |

mod appnp;
mod gat;
mod gcn;
mod gcnii;
mod gprgnn;
mod grand;
mod graphcls;
mod inceptgcn;
mod jknet;
mod sgc;

pub use appnp::Appnp;
pub use gat::Gat;
pub use gcn::Gcn;
pub use gcnii::Gcnii;
pub use gprgnn::GprGnn;
pub use grand::Grand;
pub use graphcls::{GraphBackbone, GraphClassifier};
pub use inceptgcn::InceptGcn;
pub use jknet::{JkAggregate, JkNet};
pub use sgc::Sgc;

use crate::context::ForwardCtx;
use crate::param::{Binding, ParamStore};
use crate::plan::{LayerPlan, PlanExecutor};
use skipnode_autograd::{NodeId, Tape};

/// Consistency-regularization settings (GRAND's multi-head objective).
#[derive(Debug, Clone, Copy)]
pub struct Consistency {
    /// Weight of the consistency term.
    pub lambda: f64,
    /// Sharpening temperature for the averaged distribution.
    pub temperature: f64,
}

/// A trainable node-level model.
pub trait Model {
    /// Stable identifier used in result tables.
    fn name(&self) -> &'static str;

    /// The parameter store.
    fn store(&self) -> &ParamStore;

    /// Mutable access for the optimizer.
    fn store_mut(&mut self) -> &mut ParamStore;

    /// Compile this backbone into the layer-plan IR (see [`crate::plan`]).
    ///
    /// Every paper backbone returns `Some`; strategy injection, dropout
    /// placement, fused-kernel selection, and RNG ordering then live in
    /// the shared [`PlanExecutor`] instead of per-model forward loops.
    /// Bespoke models (GAT's attention aggregation has no plan-op
    /// equivalent) return `None` and override [`Model::forward`] instead.
    fn plan(&self) -> Option<LayerPlan> {
        None
    }

    /// Single forward pass producing logits (`n × C`).
    ///
    /// The default executes [`Model::plan`] through [`PlanExecutor`];
    /// models without a plan must override this.
    fn forward(&self, tape: &mut Tape, binding: &Binding, ctx: &mut ForwardCtx) -> NodeId {
        let plan = self.plan().unwrap_or_else(|| {
            panic!(
                "{} provides neither a layer plan nor a forward override",
                self.name()
            )
        });
        PlanExecutor::run(&plan, tape, binding, ctx)
    }

    /// Multi-head forward (GRAND trains several stochastic heads). The
    /// default is the single [`Model::forward`] head.
    fn forward_heads(
        &self,
        tape: &mut Tape,
        binding: &Binding,
        ctx: &mut ForwardCtx,
    ) -> Vec<NodeId> {
        vec![self.forward(tape, binding, ctx)]
    }

    /// Consistency-regularization settings, if the model trains with them.
    fn consistency(&self) -> Option<Consistency> {
        None
    }
}

/// All backbone names accepted by [`build_by_name`].
pub const BACKBONE_NAMES: [&str; 9] = [
    "gcn",
    "resgcn",
    "jknet",
    "inceptgcn",
    "gcnii",
    "appnp",
    "gprgnn",
    "grand",
    "sgc",
];

/// Why a backbone or strategy could not be built from a name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// The backbone name is not one of [`BACKBONE_NAMES`].
    UnknownBackbone(String),
    /// The strategy name is not recognized by the caller's parser.
    UnknownStrategy(String),
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::UnknownBackbone(name) => {
                write!(
                    f,
                    "unknown backbone {name:?}; expected one of {BACKBONE_NAMES:?}"
                )
            }
            BuildError::UnknownStrategy(name) => {
                write!(f, "unknown strategy {name:?}")
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// Declarative recipe for building any paper backbone by its table name,
/// with shared depth semantics (stacked convolutions for GCN-family
/// models, propagation steps for APPNP / GPRGNN / GRAND / SGC).
#[derive(Debug, Clone)]
pub struct BackboneSpec {
    /// Backbone name (one of [`BACKBONE_NAMES`]).
    pub name: String,
    /// Input feature dimension.
    pub in_dim: usize,
    /// Hidden width.
    pub hidden: usize,
    /// Number of classes.
    pub out_dim: usize,
    /// Depth knob (clamped per-backbone to its minimum).
    pub depth: usize,
    /// Dropout rate.
    pub dropout: f64,
}

impl BackboneSpec {
    /// New spec.
    pub fn new(
        name: &str,
        in_dim: usize,
        hidden: usize,
        out_dim: usize,
        depth: usize,
        dropout: f64,
    ) -> Self {
        Self {
            name: name.to_string(),
            in_dim,
            hidden,
            out_dim,
            depth,
            dropout,
        }
    }

    /// Build the backbone, consuming initialization draws from `rng`.
    /// Unknown names return [`BuildError::UnknownBackbone`] instead of
    /// panicking, so CLI and bench binaries can report them gracefully.
    pub fn build(&self, rng: &mut skipnode_tensor::SplitRng) -> Result<Box<dyn Model>, BuildError> {
        let &Self {
            in_dim,
            hidden,
            out_dim,
            depth,
            dropout,
            ..
        } = self;
        Ok(match self.name.as_str() {
            "gcn" => Box::new(Gcn::new(
                in_dim,
                hidden,
                out_dim,
                depth.max(2),
                dropout,
                rng,
            )),
            "resgcn" => Box::new(Gcn::residual(
                in_dim,
                hidden,
                out_dim,
                depth.max(2),
                dropout,
                rng,
            )),
            "jknet" => Box::new(JkNet::new(
                in_dim,
                hidden,
                out_dim,
                depth.max(1),
                dropout,
                JkAggregate::Concat,
                rng,
            )),
            "inceptgcn" => Box::new(InceptGcn::new(
                in_dim,
                hidden,
                out_dim,
                depth.max(1),
                dropout,
                rng,
            )),
            "gcnii" => Box::new(Gcnii::new(
                in_dim,
                hidden,
                out_dim,
                depth.max(1),
                dropout,
                rng,
            )),
            "appnp" => Box::new(Appnp::new(
                in_dim,
                hidden,
                out_dim,
                depth.max(1),
                0.1,
                dropout,
                rng,
            )),
            "gprgnn" => Box::new(GprGnn::new(
                in_dim,
                hidden,
                out_dim,
                depth.max(1),
                0.1,
                dropout,
                rng,
            )),
            "grand" => Box::new(Grand::new(
                in_dim,
                hidden,
                out_dim,
                depth.max(1),
                2,
                0.5,
                dropout,
                rng,
            )),
            "sgc" => Box::new(Sgc::new(in_dim, out_dim, depth.max(1), dropout, rng)),
            other => return Err(BuildError::UnknownBackbone(other.to_string())),
        })
    }

    /// The `(rows, cols)` of every parameter [`BackboneSpec::build`]
    /// registers, in registration order, without allocating them: what a
    /// checkpoint's parameters must be for this spec.
    pub(crate) fn param_shapes(&self) -> Result<Vec<(usize, usize)>, BuildError> {
        let &Self {
            in_dim: i,
            hidden: h,
            out_dim: o,
            depth,
            ..
        } = self;
        // A Glorot weight plus its `1 × fo` bias, as `LayerInit::linear`.
        fn linear(shapes: &mut Vec<(usize, usize)>, fi: usize, fo: usize) {
            shapes.extend([(fi, fo), (1, fo)]);
        }
        let mut s = Vec::new();
        match self.name.as_str() {
            "gcn" | "resgcn" => {
                let layers = depth.max(2);
                for l in 0..layers {
                    let fi = if l == 0 { i } else { h };
                    linear(&mut s, fi, if l == layers - 1 { o } else { h });
                }
            }
            "jknet" => {
                let layers = depth.max(1);
                for l in 0..layers {
                    linear(&mut s, if l == 0 { i } else { h }, h);
                }
                linear(&mut s, h.saturating_mul(layers), o);
            }
            "inceptgcn" => {
                let depths = inceptgcn::branch_depths(depth.max(1));
                for &d in &depths {
                    for l in 0..d {
                        linear(&mut s, if l == 0 { i } else { h }, h);
                    }
                }
                linear(&mut s, h.saturating_mul(depths.len()), o);
            }
            "gcnii" => {
                linear(&mut s, i, h);
                s.extend((0..depth.max(1)).map(|_| (h, h)));
                linear(&mut s, h, o);
            }
            "appnp" | "grand" => {
                linear(&mut s, i, h);
                linear(&mut s, h, o);
            }
            "gprgnn" => {
                linear(&mut s, i, h);
                linear(&mut s, h, o);
                s.push((1, depth.max(1).saturating_add(1)));
            }
            "sgc" => linear(&mut s, i, o),
            other => return Err(BuildError::UnknownBackbone(other.to_string())),
        }
        Ok(s)
    }
}

/// Build any backbone by its table name — shorthand for
/// [`BackboneSpec::build`]. Unknown names are an `Err`, not a panic.
pub fn build_by_name(
    name: &str,
    in_dim: usize,
    hidden: usize,
    out_dim: usize,
    depth: usize,
    dropout: f64,
    rng: &mut skipnode_tensor::SplitRng,
) -> Result<Box<dyn Model>, BuildError> {
    BackboneSpec::new(name, in_dim, hidden, out_dim, depth, dropout).build(rng)
}

/// Shared helper: dense `h · W + b`.
///
/// Graph convolutions and activated middle layers used to have sibling
/// helpers here (`conv`, `conv_activated`); those are superseded by the
/// layer-plan IR — [`crate::plan::PlanOp::Conv`] and
/// [`crate::plan::PlanOp::ActivatedConv`], executed by
/// [`crate::plan::PlanExecutor`], which owns fused-kernel selection for
/// every backbone. This helper remains for bespoke models (GAT) that
/// stay outside the IR.
pub(crate) fn dense(
    tape: &mut Tape,
    binding: &Binding,
    h: NodeId,
    w: crate::param::ParamId,
    b: crate::param::ParamId,
) -> NodeId {
    let z = tape.matmul(h, binding.node(w));
    tape.add_bias(z, binding.node(b))
}
