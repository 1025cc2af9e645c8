//! The serving engine: frontier-restricted execution of a compiled
//! [`LayerPlan`] against a patchable normalized adjacency.
//!
//! A node-classification query for node `q` under a `k`-layer model
//! depends only on `q`'s `k`-hop in-neighborhood, so answering it never
//! needs the full-graph forward the training stack runs. The engine
//! re-executes the checkpointed model's plan over *compact* matrices:
//! every intermediate register holds only the rows some query in the
//! micro-batch can reach, discovered by one reverse-dataflow pass over
//! the plan (SpMM ops expand a row set to the union of its adjacency
//! columns; everything else in the eval-mode op set is row-local).
//!
//! Bitwise identity with the full forward ([`skipnode_nn::trainer::evaluate`]
//! under `Strategy::None`) is the engine's contract, and it holds by
//! construction rather than by tolerance:
//!
//! - the subset SpMM kernel ([`DynamicAdjacency::spmm_rows_subset_mapped`])
//!   runs each row's CSR-order accumulation exactly as the full kernel
//!   does;
//! - GEMM row content is invariant to the number of rows in the left
//!   operand (the accumulation-order policy), so a subset GEMM produces
//!   the same bytes per row as the full one;
//! - every elementwise op routes through [`skipnode_autograd::subset`] —
//!   the same helpers the deferred tape executor calls — so the two
//!   implementations cannot drift;
//! - the quantized path pre-quantizes weights once with the identical
//!   per-column code ([`QuantizedMatrix::from_cols`]) the quantized tape
//!   applies per evaluation, and activation quantization inside
//!   [`qgemm`] is row-local.
//!
//! Incremental updates patch the cached normalized adjacency in place
//! ([`DynamicAdjacency`]); the engine invalidates exactly the touched
//! rows of its first-hop `Ã·X` cache, so steady-state queries against a
//! mutating graph recompute only what the mutations reached.

use skipnode_graph::{Graph, GraphUpdate};
use skipnode_nn::models::JkAggregate;
use skipnode_nn::plan::{LayerPlan, PlanOp, Reg};
use skipnode_nn::{ModelCheckpoint, ParamId, ParamStore};
use skipnode_sparse::{CsrMatrix, DynamicAdjacency, COL_SKIP};
use skipnode_tensor::quant::{qgemm, QuantizedMatrix};
use skipnode_tensor::{workspace, Matrix};
use std::collections::{BTreeSet, HashMap};
use std::fmt;

/// Numeric path the engine serves on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeMode {
    /// Full-precision `f32` dense products.
    F32,
    /// Int8 weight quantization: every plan GEMM runs through [`qgemm`]
    /// against weights quantized once at load — bitwise identical to
    /// [`skipnode_nn::evaluate_quantized`], which re-quantizes
    /// per evaluation with the same per-column code.
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
    /// The plan contains a graph-level op the node-serving engine does
    /// not support.
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
                write!(
                    f,
                    "plan op {op} is not supported by the node-serving engine"
                )
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

/// A register value restricted to a sorted set of logical rows.
struct Compact {
    /// Sorted logical row ids; `data` row `i` is logical row `ids[i]`.
    ids: Vec<u32>,
    data: Matrix,
}

impl Compact {
    fn index_of(&self, id: u32) -> usize {
        self.ids
            .binary_search(&id)
            .unwrap_or_else(|_| panic!("frontier invariant broken: row {id} absent"))
    }

    /// Copy the rows `ids` (each present in `self.ids`) into a fresh
    /// matrix. Row-local ops consume operands through this, so an
    /// operand computed for a superset frontier serves a narrower one.
    fn gather(&self, ids: &[u32]) -> Matrix {
        let mut out = Matrix::zeros(ids.len(), self.data.cols());
        for (i, &id) in ids.iter().enumerate() {
            out.row_mut(i)
                .copy_from_slice(self.data.row(self.index_of(id)));
        }
        out
    }
}

/// Per-register execution slot: alias registers (eval-mode dropout,
/// penultimate markers) point at the register that materializes them.
enum Slot {
    Alias,
    Mat(Compact),
}

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

/// Long-lived serving state for one checkpointed model over one live graph.
pub struct ServeEngine {
    plan: LayerPlan,
    params: ParamStore,
    mode: ServeMode,
    backbone: String,
    /// Weights pre-quantized at load (empty in [`ServeMode::F32`]).
    qweights: HashMap<ParamId, QuantizedMatrix>,
    adj: DynamicAdjacency,
    /// Row-major growable feature store (`n × feat_dim`).
    feat: Vec<f32>,
    feat_dim: usize,
    out_dim: usize,
    /// Cached rows of `Ã·X` (the first propagation over raw features —
    /// the widest SpMM in most plans). Invalidated per touched row.
    first_hop: Vec<Option<Vec<f32>>>,
    /// Scratch logical-column → compact-row map, length `n`, reset to
    /// [`COL_SKIP`] after each SpMM.
    col_map: Vec<u32>,
    /// Alias-resolved root register per register index.
    root: Vec<usize>,
    /// Static column width per register.
    reg_cols: Vec<usize>,
    stats: EngineStats,
}

impl ServeEngine {
    /// Build a serving engine from a trained checkpoint and the graph it
    /// serves. Precomputes the normalized adjacency in patchable form and
    /// (in quantized mode) the per-column weight codes.
    pub fn from_checkpoint(
        ckpt: &ModelCheckpoint,
        graph: &Graph,
        mode: ServeMode,
    ) -> Result<Self, ServeError> {
        let model = ckpt.restore().map_err(ServeError::Restore)?;
        let plan = model
            .plan()
            .ok_or_else(|| ServeError::NoPlan(ckpt.spec.name.clone()))?;
        if graph.feature_dim() != ckpt.spec.in_dim {
            return Err(ServeError::FeatureDim {
                expected: ckpt.spec.in_dim,
                got: graph.feature_dim(),
            });
        }
        // Copy the restored store; registration order matches the plan's
        // ParamIds by construction (restore validates names and shapes).
        let src = model.store();
        let mut params = ParamStore::new();
        for id in src.ids() {
            params.add(src.name(id).to_string(), src.value(id).clone());
        }

        let mut qweights = HashMap::new();
        for op in &plan.ops {
            if let PlanOp::Readout { .. } = op {
                return Err(ServeError::UnsupportedOp("Readout"));
            }
            if mode == ServeMode::Quantized {
                // Exactly the matmuls the quantized tape routes through
                // qgemm: dense products whose right operand is a leaf
                // weight.
                let w = match op {
                    PlanOp::Conv { w, .. }
                    | PlanOp::ActivatedConv { w, .. }
                    | PlanOp::Dense { w, .. } => Some(*w),
                    _ => None,
                };
                if let Some(w) = w {
                    qweights
                        .entry(w)
                        .or_insert_with(|| QuantizedMatrix::from_cols(params.value(w)));
                }
            }
        }

        let n = graph.num_nodes();
        let feat_dim = graph.feature_dim();
        let adj = DynamicAdjacency::from_edges(n, graph.edges());
        let root = alias_roots(&plan);
        let reg_cols = infer_reg_cols(&plan, &params, feat_dim);
        Ok(Self {
            plan,
            params,
            mode,
            backbone: ckpt.spec.name.clone(),
            qweights,
            adj,
            feat: graph.features().as_slice().to_vec(),
            feat_dim,
            out_dim: ckpt.spec.out_dim,
            first_hop: vec![None; n],
            col_map: vec![COL_SKIP; n],
            root,
            reg_cols,
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
            GraphUpdate::AddNode(features) => features.len() == self.feat_dim,
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
                    self.feat_dim,
                    "AddNode feature width must match the model's input dim"
                );
                self.adj.add_node();
                self.feat.extend_from_slice(features);
                self.first_hop.push(None);
                self.col_map.push(COL_SKIP);
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
        self.serve_batch(&[node]).row(0).to_vec()
    }

    /// Answer a micro-batch of node queries. Row `i` of the result is the
    /// logits for `queries[i]` (duplicates allowed); bitwise identical to
    /// serving each query alone and to the corresponding rows of the
    /// full-graph evaluation.
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

        let need = self.frontier(&ids);
        let slots = self.execute(&need);
        let out = resolve(&slots, &self.root, self.plan.output.0);
        let mut res = Matrix::zeros(queries.len(), out.data.cols());
        for (i, &q) in queries.iter().enumerate() {
            res.row_mut(i)
                .copy_from_slice(out.data.row(out.index_of(q as u32)));
        }
        self.stats.queries += queries.len() as u64;
        self.stats.batches += 1;
        res
    }

    /// Reverse dataflow: which logical rows of each register the query
    /// set can reach. SpMM sources expand to the union of the adjacency
    /// columns of every needed output row; all other eval-mode ops are
    /// row-local. Carries are dead at eval (`post_conv` is the identity
    /// under `Strategy::None`), so they are *not* expanded — that is what
    /// keeps the frontier exactly the k-hop in-neighborhood.
    fn frontier(&self, query_ids: &[u32]) -> Vec<Vec<u32>> {
        let ops = &self.plan.ops;
        let mut need: Vec<BTreeSet<u32>> = vec![BTreeSet::new(); ops.len() + 1];
        need[self.plan.output.0].extend(query_ids.iter().copied());
        for k in (0..ops.len()).rev() {
            if need[k + 1].is_empty() {
                continue;
            }
            let out: Vec<u32> = need[k + 1].iter().copied().collect();
            let local = |need: &mut Vec<BTreeSet<u32>>, r: Reg| {
                need[r.0].extend(out.iter().copied());
            };
            match &ops[k] {
                PlanOp::Dropout { src, .. }
                | PlanOp::DropRows { src, .. }
                | PlanOp::Penultimate { src }
                | PlanOp::Relu { src }
                | PlanOp::Dense { src, .. } => local(&mut need, *src),
                PlanOp::Conv { src, .. } => self.expand_spmm(&mut need[src.0], &out),
                PlanOp::ActivatedConv {
                    src,
                    w,
                    init_residual,
                    residual,
                    ..
                } => {
                    if let Some((h0, _)) = init_residual {
                        local(&mut need, *h0);
                    }
                    if let Some(res) = residual {
                        // Same shape gate the tape applies (rows are
                        // uniformly n in the full forward, so the gate
                        // reduces to column equality).
                        if self.reg_cols[res.0] == self.params.value(*w).cols() {
                            local(&mut need, *res);
                        }
                    }
                    self.expand_spmm(&mut need[src.0], &out);
                }
                PlanOp::Propagate { src, teleport, .. } => {
                    if let Some((h0, _)) = teleport {
                        local(&mut need, *h0);
                    }
                    self.expand_spmm(&mut need[src.0], &out);
                }
                PlanOp::LinComb { parts } => {
                    for &(p, _) in parts {
                        local(&mut need, p);
                    }
                }
                PlanOp::WeightedSum { parts, .. } | PlanOp::Aggregate { parts, .. } => {
                    for &p in parts {
                        local(&mut need, p);
                    }
                }
                PlanOp::Readout { .. } => unreachable!("rejected at construction"),
            }
        }
        need.into_iter().map(|s| s.into_iter().collect()).collect()
    }

    fn expand_spmm(&self, dst: &mut BTreeSet<u32>, out_rows: &[u32]) {
        for &r in out_rows {
            let (cols, _) = self.adj.row(r as usize);
            dst.extend(cols.iter().copied());
        }
    }

    /// Forward pass over compact registers, replaying the canonical
    /// unfused op chains of [`skipnode_nn::plan`]'s executor in eval mode.
    fn execute(&mut self, need: &[Vec<u32>]) -> Vec<Slot> {
        let mut slots: Vec<Slot> = Vec::with_capacity(self.plan.ops.len() + 1);
        slots.push(Slot::Mat(Compact {
            ids: need[0].clone(),
            data: self.gather_features(&need[0]),
        }));
        for k in 0..self.plan.ops.len() {
            let op = self.plan.ops[k].clone();
            let out_ids = &need[k + 1];
            let slot = match &op {
                // Identity at eval: dropout never fires, the penultimate
                // marker only records.
                PlanOp::Dropout { .. } | PlanOp::DropRows { .. } | PlanOp::Penultimate { .. } => {
                    Slot::Alias
                }
                _ if out_ids.is_empty() => Slot::Mat(Compact {
                    ids: Vec::new(),
                    data: Matrix::zeros(0, self.reg_cols[k + 1]),
                }),
                PlanOp::Conv { src, w, b } => {
                    let p = self.exec_spmm(out_ids, &slots, *src);
                    let mut z = self.plan_matmul(&p.data, *w);
                    skipnode_autograd::subset::add_bias_in_place(&mut z, self.params.value(*b));
                    Slot::Mat(Compact {
                        ids: out_ids.clone(),
                        data: z,
                    })
                }
                PlanOp::ActivatedConv {
                    src,
                    w,
                    b,
                    init_residual,
                    identity_map,
                    residual,
                    ..
                } => {
                    // Canonical unfused chain: spmm → [init-residual
                    // lin_comb] → matmul → [identity-map lin_comb] →
                    // [add_bias] → relu → [residual add]; post_conv is
                    // the identity at eval.
                    let p = self.exec_spmm(out_ids, &slots, *src);
                    let support = match init_residual {
                        Some((h0, alpha)) => {
                            let h0m = resolve(&slots, &self.root, h0.0).gather(out_ids);
                            let mut s = Matrix::zeros(p.data.rows(), p.data.cols());
                            skipnode_autograd::subset::lin_comb_into(
                                &mut s,
                                &[(&p.data, 1.0 - alpha), (&h0m, *alpha)],
                            );
                            s
                        }
                        None => p.data,
                    };
                    let t = self.plan_matmul(&support, *w);
                    let mut z = match identity_map {
                        Some(beta) => {
                            let mut z = Matrix::zeros(t.rows(), t.cols());
                            skipnode_autograd::subset::lin_comb_into(
                                &mut z,
                                &[(&support, 1.0 - beta), (&t, *beta)],
                            );
                            z
                        }
                        None => t,
                    };
                    if let Some(b) = b {
                        skipnode_autograd::subset::add_bias_in_place(&mut z, self.params.value(*b));
                    }
                    skipnode_autograd::subset::relu_in_place(&mut z);
                    if let Some(res) = residual {
                        if self.reg_cols[res.0] == z.cols() {
                            let resm = resolve(&slots, &self.root, res.0).gather(out_ids);
                            z.add_scaled(&resm, 1.0);
                        }
                    }
                    Slot::Mat(Compact {
                        ids: out_ids.clone(),
                        data: z,
                    })
                }
                PlanOp::Dense { src, w, b } => {
                    let a = resolve(&slots, &self.root, src.0).gather(out_ids);
                    let mut z = self.plan_matmul(&a, *w);
                    skipnode_autograd::subset::add_bias_in_place(&mut z, self.params.value(*b));
                    Slot::Mat(Compact {
                        ids: out_ids.clone(),
                        data: z,
                    })
                }
                PlanOp::Relu { src } => {
                    let mut a = resolve(&slots, &self.root, src.0).gather(out_ids);
                    skipnode_autograd::subset::relu_in_place(&mut a);
                    Slot::Mat(Compact {
                        ids: out_ids.clone(),
                        data: a,
                    })
                }
                PlanOp::Propagate { src, teleport, .. } => {
                    let p = self.exec_spmm(out_ids, &slots, *src);
                    let data = match teleport {
                        Some((h0, alpha)) => {
                            let h0m = resolve(&slots, &self.root, h0.0).gather(out_ids);
                            let mut s = Matrix::zeros(p.data.rows(), p.data.cols());
                            skipnode_autograd::subset::lin_comb_into(
                                &mut s,
                                &[(&p.data, 1.0 - alpha), (&h0m, *alpha)],
                            );
                            s
                        }
                        None => p.data,
                    };
                    Slot::Mat(Compact {
                        ids: out_ids.clone(),
                        data,
                    })
                }
                PlanOp::LinComb { parts } => {
                    let gathered: Vec<(Matrix, f32)> = parts
                        .iter()
                        .map(|&(p, c)| (resolve(&slots, &self.root, p.0).gather(out_ids), c))
                        .collect();
                    let refs: Vec<(&Matrix, f32)> = gathered.iter().map(|(m, c)| (m, *c)).collect();
                    let mut v = Matrix::zeros(out_ids.len(), self.reg_cols[k + 1]);
                    skipnode_autograd::subset::lin_comb_into(&mut v, &refs);
                    Slot::Mat(Compact {
                        ids: out_ids.clone(),
                        data: v,
                    })
                }
                PlanOp::WeightedSum { parts, w } => {
                    let coefs = self.params.value(*w).row(0).to_vec();
                    let gathered: Vec<Matrix> = parts
                        .iter()
                        .map(|&p| resolve(&slots, &self.root, p.0).gather(out_ids))
                        .collect();
                    let refs: Vec<(&Matrix, f32)> =
                        gathered.iter().zip(&coefs).map(|(m, &c)| (m, c)).collect();
                    let mut v = Matrix::zeros(out_ids.len(), self.reg_cols[k + 1]);
                    skipnode_autograd::subset::lin_comb_into(&mut v, &refs);
                    Slot::Mat(Compact {
                        ids: out_ids.clone(),
                        data: v,
                    })
                }
                PlanOp::Aggregate { parts, kind } => {
                    let gathered: Vec<Matrix> = parts
                        .iter()
                        .map(|&p| resolve(&slots, &self.root, p.0).gather(out_ids))
                        .collect();
                    let data = match kind {
                        JkAggregate::Concat => {
                            let refs: Vec<&Matrix> = gathered.iter().collect();
                            Matrix::hcat(&refs)
                        }
                        JkAggregate::MaxPool => {
                            let mut v = gathered[0].clone();
                            for cand in &gathered[1..] {
                                skipnode_autograd::subset::max_pool_in_place(&mut v, cand);
                            }
                            v
                        }
                    };
                    Slot::Mat(Compact {
                        ids: out_ids.clone(),
                        data,
                    })
                }
                PlanOp::Readout { .. } => unreachable!("rejected at construction"),
            };
            slots.push(slot);
        }
        slots
    }

    /// Subset SpMM of the patched adjacency against a compact operand.
    /// When the operand is (an alias of) the raw feature register, rows
    /// are answered from / inserted into the first-hop cache.
    fn exec_spmm(&mut self, out_ids: &[u32], slots: &[Slot], src: Reg) -> Compact {
        let root = self.root[src.0];
        let operand = resolve(slots, &self.root, src.0);
        let d = operand.data.cols();
        if root == 0 {
            let uncached: Vec<u32> = out_ids
                .iter()
                .copied()
                .filter(|&r| self.first_hop[r as usize].is_none())
                .collect();
            self.stats.first_hop_hits += (out_ids.len() - uncached.len()) as u64;
            self.stats.first_hop_misses += uncached.len() as u64;
            if !uncached.is_empty() {
                let fresh = self.mapped_spmm(operand, &uncached);
                for (i, &r) in uncached.iter().enumerate() {
                    self.first_hop[r as usize] = Some(fresh.row(i).to_vec());
                }
            }
            let mut out = Matrix::zeros(out_ids.len(), d);
            for (i, &r) in out_ids.iter().enumerate() {
                out.row_mut(i)
                    .copy_from_slice(self.first_hop[r as usize].as_ref().unwrap());
            }
            Compact {
                ids: out_ids.to_vec(),
                data: out,
            }
        } else {
            let data = self.mapped_spmm(operand, out_ids);
            Compact {
                ids: out_ids.to_vec(),
                data,
            }
        }
    }

    fn mapped_spmm(&mut self, operand: &Compact, rows: &[u32]) -> Matrix {
        for (i, &id) in operand.ids.iter().enumerate() {
            self.col_map[id as usize] = i as u32;
        }
        let mut out = Matrix::zeros(rows.len(), operand.data.cols());
        self.adj
            .spmm_rows_subset_mapped(&operand.data, &self.col_map, rows, &mut out);
        // Reset only the entries just written; the scratch stays all
        // COL_SKIP between calls without an O(n) clear.
        for &id in &operand.ids {
            self.col_map[id as usize] = COL_SKIP;
        }
        out
    }

    /// Dense product against a plan weight: pre-quantized int8 GEMM in
    /// quantized mode, the standard f32 GEMM otherwise.
    fn plan_matmul(&self, a: &Matrix, w: ParamId) -> Matrix {
        if let Some(qb) = self.qweights.get(&w) {
            let mut out = workspace::take(a.rows(), qb.n());
            qgemm(a, qb, &mut out);
            out
        } else {
            a.matmul(self.params.value(w))
        }
    }

    fn gather_features(&self, ids: &[u32]) -> Matrix {
        let d = self.feat_dim;
        let mut out = Matrix::zeros(ids.len(), d);
        for (i, &id) in ids.iter().enumerate() {
            let r = id as usize;
            out.row_mut(i)
                .copy_from_slice(&self.feat[r * d..(r + 1) * d]);
        }
        out
    }
}

fn resolve<'a>(slots: &'a [Slot], root: &[usize], reg: usize) -> &'a Compact {
    match &slots[root[reg]] {
        Slot::Mat(c) => c,
        Slot::Alias => unreachable!("alias root must be materialized"),
    }
}

/// Alias-resolved root register per register: eval-mode identity ops
/// (dropout, row dropout, penultimate markers) forward to their source.
fn alias_roots(plan: &LayerPlan) -> Vec<usize> {
    let mut root: Vec<usize> = (0..=plan.ops.len()).collect();
    for (k, op) in plan.ops.iter().enumerate() {
        if let PlanOp::Dropout { src, .. }
        | PlanOp::DropRows { src, .. }
        | PlanOp::Penultimate { src } = op
        {
            root[k + 1] = root[src.0];
        }
    }
    root
}

/// Static column width of every register (rows are uniform in the full
/// forward, so shape gates reduce to these widths).
fn infer_reg_cols(plan: &LayerPlan, params: &ParamStore, in_dim: usize) -> Vec<usize> {
    let mut cols = vec![0usize; plan.ops.len() + 1];
    cols[0] = in_dim;
    for (k, op) in plan.ops.iter().enumerate() {
        cols[k + 1] = match op {
            PlanOp::Dropout { src, .. }
            | PlanOp::DropRows { src, .. }
            | PlanOp::Penultimate { src }
            | PlanOp::Relu { src }
            | PlanOp::Readout { src, .. } => cols[src.0],
            PlanOp::Conv { w, .. } | PlanOp::ActivatedConv { w, .. } | PlanOp::Dense { w, .. } => {
                params.value(*w).cols()
            }
            PlanOp::Propagate { src, .. } => cols[src.0],
            PlanOp::LinComb { parts } => cols[parts[0].0 .0],
            PlanOp::WeightedSum { parts, .. } => cols[parts[0].0],
            PlanOp::Aggregate { parts, kind } => match kind {
                JkAggregate::Concat => parts.iter().map(|p| cols[p.0]).sum(),
                JkAggregate::MaxPool => cols[parts[0].0],
            },
        };
    }
    cols
}
