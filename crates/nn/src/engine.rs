//! Glue between the backbone zoo and the compiled training engine.
//!
//! [`compile_train_program`] records one eager probe forward (train
//! semantics, probe RNG) and compiles the resulting tape into a
//! [`TrainProgram`] — the fixed forward+backward schedule the trainer
//! replays every epoch. [`StrategySampler`] adapts a [`Strategy`] to the
//! engine's [`EpochSampler`] callback so per-epoch skip masks are drawn
//! with exactly the RNG consumption of the eager path.

use crate::context::{sample_skip_mask_segmented, ForwardCtx, Strategy};
use crate::models::Model;
use skipnode_autograd::{EpochSampler, Tape, TrainProgram};
use skipnode_core::SkipNodeConfig;
use skipnode_graph::{Graph, GraphBatch};
use skipnode_sparse::CsrMatrix;
use skipnode_tensor::{Matrix, SegmentTable, SplitRng};
use std::convert::Infallible;
use std::sync::Arc;

/// Why a model could not be compiled for epoch replay.
///
/// Compilation cannot fail: every op has a forward and a backward that
/// compiled replay runs, so this enum has no values. It stays as the error
/// type of [`compile_train_program`] / [`compile_train_program_packed`] so
/// their `Result` signatures are stable for callers.
#[derive(Debug)]
pub enum EngineError {}

impl std::fmt::Display for EngineError {
    fn fmt(&self, _: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {}
    }
}

impl std::error::Error for EngineError {}

/// Draws per-layer skip masks for [`TrainProgram::begin_epoch`] using the
/// strategy's [`SkipNodeConfig`] — one [`SkipNodeConfig::sample_mask`] call
/// per skip layer, the exact RNG consumption of the eager forward.
pub struct StrategySampler<'a> {
    cfg: Option<&'a SkipNodeConfig>,
    degrees: &'a [usize],
    segments: Option<&'a SegmentTable>,
}

impl<'a> StrategySampler<'a> {
    /// Sampler for one training epoch.
    pub fn new(strategy: &'a Strategy, degrees: &'a [usize]) -> Self {
        let cfg = match strategy {
            Strategy::SkipNode(cfg) | Strategy::SkipNodeTrainEval(cfg) => Some(cfg),
            _ => None,
        };
        Self {
            cfg,
            degrees,
            segments: None,
        }
    }

    /// Returns the sampler unchanged: `order` is always `None` (the
    /// pointee type is uninhabited). Kept only so the benchmark in `perf/`,
    /// which passes [`Graph::node_order`] here, compiles unchanged.
    pub fn with_order(self, _order: Option<&Infallible>) -> Self {
        self
    }

    /// Draw one independent mask per graph of a packed batch, matching the
    /// segment-aware eager forward (see [`ForwardCtx::segments`]).
    pub fn with_segments(mut self, segments: Option<&'a SegmentTable>) -> Self {
        self.segments = segments;
        self
    }
}

impl EpochSampler for StrategySampler<'_> {
    fn skip_mask(&mut self, rng: &mut SplitRng, out: &mut [bool]) {
        let cfg = self
            .cfg
            .expect("recorded tape has skip layers but the strategy samples no masks");
        out.copy_from_slice(&sample_skip_mask_segmented(
            cfg,
            self.degrees,
            self.segments,
            rng,
        ));
    }
}

/// Record one probe forward of `model` (train semantics) and compile it
/// into a [`TrainProgram`].
///
/// The probe RNG is throwaway: tape *topology* depends only on the plan
/// and strategy, never on drawn values, and every stochastic record is
/// refreshed by [`TrainProgram::begin_epoch`] before the first replay.
/// Parameter values are bound at probe time but overwritten each epoch by
/// [`TrainProgram::load_params`], so the probe can be taken once before
/// training starts.
pub fn compile_train_program(
    model: &dyn Model,
    graph: &Graph,
    full_adj: &Arc<CsrMatrix>,
    strategy: &Strategy,
    fuse: bool,
) -> Result<TrainProgram, EngineError> {
    Ok(compile_probe(
        model,
        graph.features_arc(),
        &graph.degrees(),
        full_adj,
        strategy,
        fuse,
        None,
    ))
}

/// [`compile_train_program`] over a packed multi-graph batch: the probe
/// forward runs with [`ForwardCtx::segments`] set, so segment-aware ops
/// (per-graph skip masks, [`crate::plan::PlanOp::Readout`]) record into
/// the compiled tape exactly as the eager batched forward plays them.
pub fn compile_train_program_packed(
    model: &dyn Model,
    batch: &GraphBatch,
    full_adj: &Arc<CsrMatrix>,
    strategy: &Strategy,
    fuse: bool,
) -> Result<TrainProgram, EngineError> {
    Ok(compile_probe(
        model,
        batch.features_arc(),
        batch.degrees(),
        full_adj,
        strategy,
        fuse,
        Some(batch.segments()),
    ))
}

pub(crate) fn compile_probe(
    model: &dyn Model,
    features: Arc<Matrix>,
    degrees: &[usize],
    full_adj: &Arc<CsrMatrix>,
    strategy: &Strategy,
    fuse: bool,
    segments: Option<&Arc<SegmentTable>>,
) -> TrainProgram {
    let mut tape = Tape::new();
    let binding = model.store().bind(&mut tape);
    let adj_id = tape.register_adj(Arc::clone(full_adj));
    let x = tape.constant_shared(features);
    let mut probe_rng = SplitRng::new(0x5eed);
    let mut ctx = ForwardCtx::new(adj_id, x, degrees, strategy, true, &mut probe_rng);
    ctx.fuse = fuse;
    ctx.segments = segments;
    let heads = model.forward_heads(&mut tape, &binding, &mut ctx);
    TrainProgram::compile(tape, heads)
}
