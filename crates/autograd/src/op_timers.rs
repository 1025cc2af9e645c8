//! Per-op wall-time totals of compiled training replay and of inference.
//!
//! [`crate::TrainProgram`] times each forward evaluation and each backward
//! step it runs, and [`crate::Tape::run`] each evaluation of an inference
//! tape, keyed by (phase, op kind), into process-global relaxed atomics.
//! Collection rides on the kernel counters' switch
//! ([`skipnode_tensor::kstats::enabled`], `SKIPNODE_KERNEL_STATS=1`): when
//! it is off, each timed call costs one relaxed load and no clock read.
//! Forward recomputes of a checkpointed backward count as forward time.

use crate::tape::Op;
use skipnode_tensor::kstats;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Which executor phase an op ran in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// [`crate::TrainProgram::replay_forward`] (and checkpoint recomputes).
    Forward,
    /// [`crate::TrainProgram::backward`].
    Backward,
    /// [`crate::Tape::run`], the no-grad executor behind evaluation.
    Inference,
}

const PHASES: [Phase; 3] = [Phase::Forward, Phase::Backward, Phase::Inference];

/// Op kinds, in [`Op`] declaration order (stable, lowercase). A folded
/// `Op::Linear` counts as `matmul` (its bias and ReLU run in the GEMM's
/// stores) and a propagation with a folded dropout as `spmm`.
pub(crate) const NAMES: [&str; 22] = [
    "leaf",
    "matmul",
    "spmm",
    "add_scaled",
    "scale",
    "add_bias",
    "relu",
    "mask",
    "row_mask",
    "row_combine",
    "skip_conv",
    "sparse_input",
    "concat_cols",
    "max_pool",
    "readout",
    "pairnorm",
    "hadamard",
    "lin_comb",
    "weighted_sum",
    "edge_score",
    "gat_aggregate",
    "gather",
];
const KINDS: usize = NAMES.len();

static CALLS: [[AtomicU64; KINDS]; PHASES.len()] =
    [const { [const { AtomicU64::new(0) }; KINDS] }; PHASES.len()];
static NANOS: [[AtomicU64; KINDS]; PHASES.len()] =
    [const { [const { AtomicU64::new(0) }; KINDS] }; PHASES.len()];

/// The op kind index of `op` into the timer tables.
pub(crate) fn kind(op: &Op) -> usize {
    match op {
        Op::Leaf => 0,
        Op::MatMul(..) | Op::Linear { .. } => 1,
        Op::Spmm { .. } => 2,
        Op::AddScaled(..) => 3,
        Op::Scale(..) => 4,
        Op::AddBias(..) => 5,
        Op::Relu(..) => 6,
        Op::Mask { .. } => 7,
        Op::RowMask { .. } => 8,
        Op::RowCombine { .. } => 9,
        Op::SkipConv { .. } => 10,
        Op::SparseInput { .. } => 11,
        Op::ConcatCols(..) => 12,
        Op::MaxPool { .. } => 13,
        Op::Readout { .. } => 14,
        Op::PairNorm { .. } => 15,
        Op::Hadamard(..) => 16,
        Op::LinComb(..) => 17,
        Op::WeightedSum { .. } => 18,
        Op::EdgeScore { .. } => 19,
        Op::GatAggregate { .. } => 20,
        Op::Gather { .. } => 21,
    }
}

/// Start timing one call: `None` (no clock read) while collection is off.
#[inline]
pub(crate) fn start() -> Option<Instant> {
    kstats::enabled().then(Instant::now)
}

/// Close a call opened by [`start`] and add it to (`phase`, `kind`).
#[inline]
pub(crate) fn stop(started: Option<Instant>, phase: Phase, kind: usize) {
    if let Some(t) = started {
        let p = phase as usize;
        CALLS[p][kind].fetch_add(1, Ordering::Relaxed);
        NANOS[p][kind].fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}

/// One (phase, op kind) total.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpTime {
    /// Forward, backward or inference.
    pub phase: Phase,
    /// Op kind name (stable, lowercase), e.g. `"skip_conv"`.
    pub op: &'static str,
    /// Timed calls.
    pub calls: u64,
    /// Their summed wall time in nanoseconds.
    pub nanos: u64,
}

/// The totals of every (phase, op kind) that ran at least once since the
/// last [`reset`], in [`Phase`] order.
pub fn snapshot() -> Vec<OpTime> {
    let mut out = Vec::new();
    for (p, phase) in PHASES.into_iter().enumerate() {
        for (k, &op) in NAMES.iter().enumerate() {
            let calls = CALLS[p][k].load(Ordering::Relaxed);
            if calls > 0 {
                out.push(OpTime {
                    phase,
                    op,
                    calls,
                    nanos: NANOS[p][k].load(Ordering::Relaxed),
                });
            }
        }
    }
    out
}

/// Zero every total.
pub fn reset() {
    for table in [&CALLS, &NANOS] {
        for row in table {
            for v in row {
                v.store(0, Ordering::Relaxed);
            }
        }
    }
}
