//! Frontier serving: a recorded no-grad forward replayed over only the rows
//! one batch of queries needs.
//!
//! [`Frontier::cone`] makes one reverse pass over the recorded ops to find
//! the rows each node must compute: a propagation widens a row set to the
//! columns its adjacency rows store, every other supported op is
//! row-local, weights and biases are read whole. [`Frontier::run`] rewrites
//! that cone into a compact inference tape of the same ops, each
//! propagation over a block `Ã[rows_out, rows_in]` of the live
//! [`DynamicAdjacency`] and an `Op::Gather` wherever an operand holds more
//! rows than its reader computes, and runs it with [`Tape::run`]. A served
//! row has the bits of the full forward's: an ascending renumbering keeps
//! each adjacency row's entry order, a GEMM row does not depend on how
//! many rows its operand has (DESIGN §11), and the rest is row-local.

use crate::infer::op_inputs;
use crate::op_timers;
use crate::tape::{AdjId, NodeId, Op, Tape};
use skipnode_sparse::{CsrMatrix, DynamicAdjacency};
use skipnode_tensor::quant::QuantizedMatrix;
use skipnode_tensor::{workspace, Matrix, SplitRng};
use std::rc::Rc;
use std::sync::Arc;

/// Ascending, duplicate-free logical rows, shared by the nodes computing
/// the same ones.
type Rows = Rc<[u32]>;

/// How an op reads one operand: row by row, through its adjacency rows, or
/// whole (a weight or a bias).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Read {
    Rows,
    Propagated,
    Whole,
}

/// Visit each operand of `op` with how it is read, or name an op that
/// mixes rows other than through its adjacency (PairNorm, readout,
/// attention) or only trains (dropout, row combine).
fn reads(op: &Op, f: &mut dyn FnMut(usize, Read)) -> Result<(), &'static str> {
    use Read::{Rows, Whole};
    match op {
        Op::Leaf => {}
        Op::Spmm { x, dropped, .. } if dropped.is_empty() => f(x.0, Read::Propagated),
        // `X` comes from the live features, not from a node.
        Op::SparseInput { w, dropped, .. } if dropped.is_empty() => f(w.0, Whole),
        Op::MatMul(a, b) | Op::AddBias(a, b) => {
            f(a.0, Rows);
            f(b.0, Whole);
        }
        Op::Linear { x, w, b, .. } => {
            f(x.0, Rows);
            f(w.0, Whole);
            if let Some(b) = b {
                f(b.0, Whole);
            }
        }
        Op::WeightedSum { xs, w } => {
            xs.iter().for_each(|x| f(x.0, Rows));
            f(w.0, Whole);
        }
        Op::AddScaled(..)
        | Op::Scale(..)
        | Op::Relu(_)
        | Op::Hadamard(..)
        | Op::LinComb(_)
        | Op::ConcatCols(_)
        | Op::MaxPool { .. } => op_inputs(op, &mut |p| f(p, Rows)),
        other => return Err(op_timers::NAMES[op_timers::kind(other)]),
    }
    Ok(())
}

/// A leaf read whole: its value, and its int8 codes on a quantized tape.
type WholeLeaf = (Arc<Matrix>, Option<Arc<QuantizedMatrix>>);

/// A recorded inference forward, ready to serve row subsets of one output.
pub struct Frontier {
    /// The recorded forward; its ops are read, its nodes never computed.
    tape: Tape,
    /// The input features' leaf; its rows come from the caller.
    features: usize,
    first_hop: Option<usize>,
    /// By node, each leaf read whole, shared into every compact tape.
    whole: Vec<Option<WholeLeaf>>,
}

impl Frontier {
    /// Take the inference tape `tape`, on which a forward reading the
    /// constant leaf `features` was recorded (and not run), to serve rows of
    /// `out`. Every op `out` depends on must be row-local or a propagation,
    /// read weights and biases that are leaves, and read rows only of
    /// computed nodes or `features`; `Err` names the first that does not.
    pub fn new(mut tape: Tape, out: NodeId, features: NodeId) -> Result<Self, &'static str> {
        let n = tape.len();
        let (mut live, mut whole) = (vec![false; n], vec![false; n]);
        live[out.0] = true;
        let mut first_hop = None;
        for idx in (0..=out.0).rev() {
            let (op, mut bad) = (&tape.nodes[idx].op, None);
            if !live[idx] {
                continue;
            }
            reads(op, &mut |p, read| {
                live[p] = true;
                let leaf = matches!(tape.nodes[p].op, Op::Leaf);
                match read {
                    Read::Whole if !leaf || p == features.0 => bad = Some("computed weight"),
                    Read::Whole => whole[p] = true,
                    _ if leaf && p != features.0 => bad = Some("row-read parameter"),
                    _ => {}
                }
            })?;
            if let Some(bad) = bad {
                return Err(bad);
            }
            // The last found in this reverse sweep is the first forward.
            match op {
                Op::Spmm { x, .. } if *x == features => first_hop = Some(idx),
                Op::SparseInput { adj: Some(_), .. } => first_hop = Some(idx),
                _ => {}
            }
        }
        let mut values = vec![None; n];
        for p in (0..n).filter(|&p| whole[p]) {
            let m = tape.take_value(NodeId(p));
            let q = tape
                .is_quantized()
                .then(|| Arc::new(QuantizedMatrix::from_cols(&m)));
            values[p] = Some((Arc::new(m.clone()), q));
            workspace::give(m);
        }
        Ok(Self {
            tape,
            features: features.0,
            first_hop,
            whole: values,
        })
    }

    /// The first propagation over the input features, if any: its row `r`
    /// reads only row `r` of the adjacency and the features of `r`'s
    /// neighbors, which makes it the one to cache across batches.
    pub fn first_hop(&self) -> Option<NodeId> {
        self.first_hop.map(NodeId)
    }

    /// Column count of `node`'s value.
    pub fn cols(&self, node: NodeId) -> usize {
        self.tape.shape(node).1
    }

    /// The reverse pass: the rows every node computes for rows `rows`
    /// (ascending) of `target` over `adj`, not looking past `given`, whose
    /// rows the caller supplies to [`Frontier::run`].
    pub fn cone(
        &self,
        adj: &DynamicAdjacency,
        target: NodeId,
        rows: Vec<u32>,
        given: Option<NodeId>,
    ) -> Cone {
        let mut need: Vec<Option<Rows>> = vec![None; target.0 + 1];
        need[target.0] = Some(rows.into());
        let mut seen = vec![false; adj.n()];
        for idx in (0..=target.0).rev() {
            let Some(out) = need[idx].clone() else {
                continue;
            };
            if given == Some(NodeId(idx)) {
                continue;
            }
            reads(&self.tape.nodes[idx].op, &mut |p, read| match read {
                Read::Whole => {}
                Read::Rows => merge(&mut need[p], &out),
                Read::Propagated => merge(&mut need[p], &neighborhood(adj, &out, &mut seen)),
            })
            .expect("ops are checked at construction");
        }
        Cone {
            given: given.map(|g| g.0),
            need,
        }
    }

    /// The rows `cone` lists for its target, in that order, computed over
    /// the adjacency the cone was found on by a compact tape. `features(r)`
    /// is row `r` of the input features and `given` the rows the cone lists
    /// for its given node. The result is a workspace buffer the caller owns;
    /// every other buffer goes back to the workspace.
    pub fn run<'f>(
        &self,
        adj: &DynamicAdjacency,
        cone: &Cone,
        features: &dyn Fn(usize) -> &'f [f32],
        given: Option<Matrix>,
    ) -> Matrix {
        let mut rewrite = Rewrite {
            frontier: self,
            cone,
            adj,
            features,
            tape: if self.tape.is_quantized() {
                Tape::inference_quantized()
            } else {
                Tape::inference()
            },
            map: vec![None; cone.need.len()],
            blocks: Vec::new(),
        };
        let mut given = given;
        for (idx, rows) in cone.need.iter().enumerate() {
            let Some(rows) = rows else {
                continue;
            };
            rewrite.map[idx] = Some(match given.take_if(|_| cone.given == Some(idx)) {
                Some(m) => rewrite.tape.constant(m),
                None => rewrite.node(idx, rows),
            });
        }
        assert!(given.is_none(), "rows given for a node outside the cone");
        let mut tape = rewrite.tape;
        let out = rewrite.map.pop().flatten().expect("the target is last");
        tape.run(&[out]);
        tape.take_value(out)
    }
}

/// The rows each node of one batch computes (see [`Frontier::cone`]), up
/// to the target; `None` where none is needed.
pub struct Cone {
    given: Option<usize>,
    need: Vec<Option<Rows>>,
}

impl Cone {
    /// The rows `node` computes (ascending), empty when it is not needed.
    pub fn rows(&self, node: NodeId) -> &[u32] {
        self.need[node.0].as_deref().unwrap_or_default()
    }
}

/// Add the rows `add` to `slot`, keeping it ascending and duplicate-free.
fn merge(slot: &mut Option<Rows>, add: &Rows) {
    *slot = Some(match slot.take() {
        None => Rc::clone(add),
        Some(cur) if Rc::ptr_eq(&cur, add) => cur,
        Some(cur) => {
            let mut union: Vec<u32> = cur.iter().chain(add.iter()).copied().collect();
            union.sort_unstable();
            union.dedup();
            union.into()
        }
    });
}

/// The columns the adjacency rows `rows` store, ascending. `seen` is an
/// all-`false` scratch of one flag per node, left all-`false`.
fn neighborhood(adj: &DynamicAdjacency, rows: &[u32], seen: &mut [bool]) -> Rows {
    let n = adj.n();
    // Every row stores its self-loop.
    if rows.len() == n {
        return (0..n as u32).collect();
    }
    for &r in rows {
        adj.row(r as usize)
            .0
            .iter()
            .for_each(|&c| seen[c as usize] = true);
    }
    (0..n as u32)
        .filter(|&c| std::mem::take(&mut seen[c as usize]))
        .collect()
}

/// The compact tape of one [`Frontier::run`], being built.
struct Rewrite<'a, 'f> {
    frontier: &'a Frontier,
    cone: &'a Cone,
    adj: &'a DynamicAdjacency,
    features: &'a dyn Fn(usize) -> &'f [f32],
    tape: Tape,
    /// By recorded node, its compact node: over its cone rows, or whole
    /// for a leaf read whole (never in the cone).
    map: Vec<Option<NodeId>>,
    /// Blocks registered, by (output rows, operand rows): the middle layers
    /// of a deep model often propagate over the same pair.
    blocks: Vec<(Rows, Rows, AdjId)>,
}

impl Rewrite<'_, '_> {
    /// Record the compact counterpart of recorded node `idx`, computing
    /// `rows`, through the op constructors that recorded it.
    fn node(&mut self, idx: usize, rows: &Rows) -> NodeId {
        let f = self.frontier;
        let op = &f.tape.nodes[idx].op;
        let mut ids = Vec::new();
        reads(op, &mut |p, read| {
            ids.push(match read {
                Read::Rows => self.rows(p, rows),
                Read::Propagated => self.map[p].expect("operand recorded first"),
                Read::Whole => self.whole(p),
            })
        })
        .expect("ops are checked at construction");
        let t = &mut self.tape;
        match op {
            Op::Leaf => {
                debug_assert_eq!(idx, f.features, "only the features are read by rows");
                let m = self.feature_rows(rows, f.tape.shape(NodeId(idx)).1);
                self.tape.constant(m)
            }
            Op::Spmm { x, .. } => {
                let x_rows = self.cone.need[x.0].clone().expect("operand in the cone");
                let adj = self.block(rows, &x_rows);
                self.tape.spmm(adj, ids[0])
            }
            Op::SparseInput { adj, .. } => {
                let x_rows = match adj {
                    Some(_) => neighborhood(self.adj, rows, &mut vec![false; self.adj.n()]),
                    None => Rc::clone(rows),
                };
                let dense = self.feature_rows(&x_rows, f.tape.shape(NodeId(f.features)).1);
                let xs = CsrMatrix::from_dense_within(&dense, usize::MAX).expect("no bound");
                workspace::give(dense);
                let adj = adj.map(|_| self.block(rows, &x_rows));
                let rng = &mut SplitRng::new(0);
                self.tape.sparse_input(Arc::new(xs), adj, ids[0], 0.0, rng)
            }
            Op::MatMul(..) => t.matmul(ids[0], ids[1]),
            Op::AddBias(..) => t.add_bias(ids[0], ids[1]),
            Op::Linear { b, relu, .. } => t.linear(ids[0], ids[1], b.map(|_| ids[2]), *relu),
            Op::WeightedSum { xs, .. } => t.weighted_sum(&ids[..xs.len()], ids[xs.len()]),
            Op::AddScaled(_, _, c) => t.add_scaled(ids[0], ids[1], *c),
            Op::Scale(_, c) => t.scale(ids[0], *c),
            Op::Relu(_) => t.relu(ids[0]),
            Op::Hadamard(..) => t.hadamard(ids[0], ids[1]),
            Op::LinComb(parts) => {
                let parts: Vec<_> = ids.iter().zip(parts).map(|(&n, &(_, c))| (n, c)).collect();
                t.lin_comb(&parts)
            }
            Op::ConcatCols(_) => t.concat_cols(&ids),
            Op::MaxPool { .. } => t.max_pool(&ids),
            _ => unreachable!("ops are checked at construction"),
        }
    }

    /// The rows `rows` of the input features, in a workspace buffer.
    fn feature_rows(&self, rows: &[u32], cols: usize) -> Matrix {
        let mut m = workspace::take_scratch(rows.len(), cols);
        for (i, &r) in rows.iter().enumerate() {
            m.row_mut(i).copy_from_slice((self.features)(r as usize));
        }
        m
    }

    /// Recorded node `p` restricted to `rows`: its compact node, or a
    /// gather of it when it computes more rows than that.
    fn rows(&mut self, p: usize, rows: &[u32]) -> NodeId {
        let node = self.map[p].expect("operand recorded first");
        let have = self.cone.need[p].as_deref().expect("operand in the cone");
        if have.len() == rows.len() {
            return node;
        }
        let mut at = 0;
        let positions = rows
            .iter()
            .map(|&r| {
                at += have[at..].partition_point(|&h| h < r);
                at as u32
            })
            .collect();
        let cols = self.tape.shape(node).1;
        self.tape.record(
            rows.len(),
            cols,
            Op::Gather {
                x: node,
                rows: positions,
            },
        )
    }

    /// The compact leaf of the recorded whole-read leaf `p`, shared without
    /// a copy, with its int8 codes.
    fn whole(&mut self, p: usize) -> NodeId {
        if let Some(node) = self.map[p] {
            return node;
        }
        let (value, q) = self.frontier.whole[p].as_ref().expect("a whole-read leaf");
        let node = self.tape.constant_shared(Arc::clone(value));
        if let Some(q) = q {
            self.tape.qweights.insert(node.0, Arc::clone(q));
        }
        self.map[p] = Some(node);
        node
    }

    /// The block `Ã[rows, cols]`, registered once per distinct pair.
    fn block(&mut self, rows: &Rows, cols: &Rows) -> AdjId {
        let same = |a: &Rows, b: &Rows| Rc::ptr_eq(a, b) || a == b;
        if let Some((_, _, id)) = self
            .blocks
            .iter()
            .find(|(r, c, _)| same(r, rows) && same(c, cols))
        {
            return *id;
        }
        let id = self.tape.register_adj(Arc::new(self.adj.block(rows, cols)));
        self.blocks.push((Rc::clone(rows), Rc::clone(cols), id));
        id
    }
}
