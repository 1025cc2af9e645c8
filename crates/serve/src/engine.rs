//! The serving engine: a checkpointed model's evaluation forward, replayed
//! over the rows each micro-batch of queries needs.
//!
//! A query for node `q` under a `k`-layer model depends only on `q`'s
//! `k`-hop in-neighborhood. At load the engine records the model's forward
//! once, exactly as [`skipnode_nn::trainer::evaluate`] records it, and
//! hands it to a [`skipnode_autograd::Frontier`], which runs each batch as
//! a compact tape over blocks of the patchable adjacency. The engine does
//! no arithmetic of its own, so a served row is bitwise the full forward's
//! on the f32 and the int8 path alike. It keeps the growable feature store,
//! the patchable adjacency ([`DynamicAdjacency`]), a cache of the rows of
//! the first propagation over the input features (invalidated per touched
//! adjacency row, so queries against a mutating graph recompute only what
//! the mutations reached) and the counters.

use skipnode_autograd::{Frontier, NodeId, Tape};
use skipnode_graph::{Graph, GraphUpdate};
use skipnode_nn::plan::PlanOp;
use skipnode_nn::{record_evaluation, ModelCheckpoint};
use skipnode_sparse::{CsrMatrix, DynamicAdjacency};
use skipnode_tensor::{workspace, Matrix};
use std::fmt;
use std::sync::Arc;

/// Numeric path the engine serves on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeMode {
    /// Full-precision `f32` dense products.
    F32,
    /// Int8 weight quantization: the forward of
    /// [`skipnode_nn::evaluate_quantized`], whose dense products against
    /// weights run through the int8 GEMM, with each weight quantized once
    /// at load by the same per-column code it applies per evaluation.
    Quantized,
}

/// Why an engine could not be built from a checkpoint.
#[derive(Debug)]
pub enum ServeError {
    /// Checkpoint restore failed (corrupt stream, unknown backbone, …).
    Restore(std::io::Error),
    /// The restored model has no layer plan (bespoke forwards such as
    /// GAT cannot be frontier-served).
    NoPlan(String),
    /// The model's forward holds an op that is neither row-local nor a
    /// propagation (a graph-level readout, say), so a node's output
    /// cannot be computed from its neighborhood alone.
    UnsupportedOp(&'static str),
    /// Graph feature width does not match the checkpoint's input dim.
    FeatureDim {
        /// What the checkpoint expects.
        expected: usize,
        /// What the graph provides.
        got: usize,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Restore(e) => write!(f, "checkpoint restore failed: {e}"),
            ServeError::NoPlan(name) => {
                write!(
                    f,
                    "backbone {name:?} has no layer plan; cannot frontier-serve"
                )
            }
            ServeError::UnsupportedOp(op) => {
                write!(f, "op {op} is not supported by the node-serving engine")
            }
            ServeError::FeatureDim { expected, got } => {
                write!(
                    f,
                    "graph features have width {got}, checkpoint expects {expected}"
                )
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// Counters the server and benches report.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineStats {
    /// Queries answered (rows returned, counting duplicates).
    pub queries: u64,
    /// `serve_batch` calls.
    pub batches: u64,
    /// Graph updates applied.
    pub updates: u64,
    /// First-hop cache rows invalidated by updates.
    pub invalidated_rows: u64,
    /// First-hop rows answered from cache.
    pub first_hop_hits: u64,
    /// First-hop rows computed fresh.
    pub first_hop_misses: u64,
}

/// The input features: the graph's own rows, then those updates added.
struct Features {
    base: Arc<Matrix>,
    /// Row-major rows of the nodes added since load.
    added: Vec<f32>,
}

impl Features {
    fn row(&self, r: usize) -> &[f32] {
        let (n, d) = self.base.shape();
        if r < n {
            self.base.row(r)
        } else {
            &self.added[(r - n) * d..(r - n + 1) * d]
        }
    }
}

/// Long-lived serving state for one checkpointed model over one live graph.
pub struct ServeEngine {
    frontier: Frontier,
    /// The logits' node on the recorded forward.
    out: NodeId,
    mode: ServeMode,
    backbone: String,
    adj: DynamicAdjacency,
    features: Features,
    out_dim: usize,
    /// Cached rows of the frontier's first hop, invalidated per touched
    /// row.
    first_hop: Vec<Option<Vec<f32>>>,
    stats: EngineStats,
}

impl ServeEngine {
    /// Build a serving engine from a trained checkpoint and the graph it
    /// serves: records the model's evaluation forward (quantizing its
    /// weights once in [`ServeMode::Quantized`]) and builds the normalized
    /// adjacency in patchable form.
    pub fn from_checkpoint(
        ckpt: &ModelCheckpoint,
        graph: &Graph,
        mode: ServeMode,
    ) -> Result<Self, ServeError> {
        let model = ckpt.restore().map_err(ServeError::Restore)?;
        let plan = model
            .plan()
            .ok_or_else(|| ServeError::NoPlan(ckpt.spec.name.clone()))?;
        // A readout's forward needs a packed batch to record at all.
        if plan
            .ops
            .iter()
            .any(|op| matches!(op, PlanOp::Readout { .. }))
        {
            return Err(ServeError::UnsupportedOp("readout"));
        }
        if graph.feature_dim() != ckpt.spec.in_dim {
            return Err(ServeError::FeatureDim {
                expected: ckpt.spec.in_dim,
                got: graph.feature_dim(),
            });
        }
        let mut tape = match mode {
            ServeMode::F32 => Tape::inference(),
            ServeMode::Quantized => Tape::inference_quantized(),
        };
        let (x, out) = record_evaluation(&mut tape, model.as_ref(), graph);
        let frontier = Frontier::new(tape, out, x).map_err(ServeError::UnsupportedOp)?;
        Ok(Self {
            mode,
            backbone: ckpt.spec.name.clone(),
            adj: DynamicAdjacency::from_normalized(&graph.gcn_adjacency()),
            features: Features {
                base: graph.features_arc(),
                added: Vec::new(),
            },
            out_dim: frontier.cols(out),
            out,
            first_hop: vec![None; graph.num_nodes()],
            frontier,
            stats: EngineStats::default(),
        })
    }

    /// Current number of servable nodes (grows with `AddNode` updates).
    pub fn num_nodes(&self) -> usize {
        self.adj.n()
    }

    /// Logit width per query.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// The numeric path this engine serves on.
    pub fn mode(&self) -> ServeMode {
        self.mode
    }

    /// Backbone name from the checkpoint spec.
    pub fn backbone(&self) -> &str {
        &self.backbone
    }

    /// Execution counters so far.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Number of currently valid first-hop cache rows.
    pub fn first_hop_cached(&self) -> usize {
        self.first_hop.iter().filter(|r| r.is_some()).count()
    }

    /// Materialize the current patched adjacency (oracle hook for tests:
    /// must be byte-identical to a from-scratch rebuild).
    pub fn snapshot_adjacency(&self) -> CsrMatrix {
        self.adj.snapshot()
    }

    /// Whether [`ServeEngine::apply_update`] accepts `update` against the
    /// current graph: both `AddEdge` endpoints are existing nodes, and an
    /// `AddNode` row is as wide as the model's input features.
    pub fn accepts_update(&self, update: &GraphUpdate) -> bool {
        match update {
            GraphUpdate::AddEdge(u, v) => *u < self.num_nodes() && *v < self.num_nodes(),
            GraphUpdate::AddNode(features) => features.len() == self.features.base.cols(),
        }
    }

    /// Apply one structural update, patching the normalized adjacency in
    /// place and invalidating exactly the first-hop cache rows whose
    /// adjacency row changed.
    ///
    /// # Panics
    /// Panics on an update [`ServeEngine::accepts_update`] rejects.
    pub fn apply_update(&mut self, update: &GraphUpdate) {
        match update {
            GraphUpdate::AddEdge(u, v) => {
                self.adj.add_edge(*u, *v);
            }
            GraphUpdate::AddNode(features) => {
                assert_eq!(
                    features.len(),
                    self.features.base.cols(),
                    "AddNode feature width must match the model's input dim"
                );
                self.adj.add_node();
                self.features.added.extend_from_slice(features);
                self.first_hop.push(None);
            }
        }
        for r in self.adj.drain_touched() {
            if self.first_hop[r as usize].take().is_some() {
                self.stats.invalidated_rows += 1;
            }
        }
        self.stats.updates += 1;
    }

    /// Answer one query — a `serve_batch` of size 1.
    pub fn serve_one(&mut self, node: usize) -> Vec<f32> {
        let logits = self.serve_batch(&[node]);
        let row = logits.row(0).to_vec();
        workspace::give(logits);
        row
    }

    /// Answer a micro-batch of node queries. Row `i` of the result is the
    /// logits for `queries[i]` (duplicates allowed); bitwise identical to
    /// serving each query alone and to the corresponding rows of the
    /// full-graph evaluation. The result is a [`workspace`] buffer: give
    /// it back once read.
    pub fn serve_batch(&mut self, queries: &[usize]) -> Matrix {
        let n = self.adj.n();
        let mut ids: Vec<u32> = queries
            .iter()
            .map(|&q| {
                assert!(q < n, "query node {q} out of range (n = {n})");
                q as u32
            })
            .collect();
        ids.sort_unstable();
        ids.dedup();
        let mut res = workspace::take_scratch(queries.len(), self.out_dim);
        if !ids.is_empty() {
            let out = self.out;
            let first_hop = self.frontier.first_hop();
            let cone = self.frontier.cone(&self.adj, out, ids, first_hop);
            let given = first_hop
                .filter(|&c| !cone.rows(c).is_empty())
                .map(|c| self.first_hop_rows(c, cone.rows(c)));
            let features = &self.features;
            let logits = self
                .frontier
                .run(&self.adj, &cone, &|r| features.row(r), given);
            let rows = cone.rows(out);
            for (i, &q) in queries.iter().enumerate() {
                let at = rows
                    .binary_search(&(q as u32))
                    .expect("a query is a cone row");
                res.row_mut(i).copy_from_slice(logits.row(at));
            }
            workspace::give(logits);
        }
        self.stats.queries += queries.len() as u64;
        self.stats.batches += 1;
        res
    }

    /// The rows `rows` of the first hop `node`: computed (and cached) where
    /// missing, then read from the cache into a workspace buffer.
    fn first_hop_rows(&mut self, node: NodeId, rows: &[u32]) -> Matrix {
        let width = self.frontier.cols(node);
        let misses: Vec<u32> = rows
            .iter()
            .copied()
            .filter(|&r| self.first_hop[r as usize].is_none())
            .collect();
        self.stats.first_hop_hits += (rows.len() - misses.len()) as u64;
        self.stats.first_hop_misses += misses.len() as u64;
        if !misses.is_empty() {
            let cone = self.frontier.cone(&self.adj, node, misses, None);
            let features = &self.features;
            let fresh = self
                .frontier
                .run(&self.adj, &cone, &|r| features.row(r), None);
            for (i, &r) in cone.rows(node).iter().enumerate() {
                self.first_hop[r as usize] = Some(fresh.row(i).to_vec());
            }
            workspace::give(fresh);
        }
        let mut m = workspace::take_scratch(rows.len(), width);
        for (i, &r) in rows.iter().enumerate() {
            let row = self.first_hop[r as usize].as_deref();
            m.row_mut(i).copy_from_slice(row.expect("cached above"));
        }
        m
    }
}
