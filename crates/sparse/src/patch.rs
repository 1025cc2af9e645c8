//! Incrementally patchable GCN-normalized adjacency for online serving.
//!
//! [`DynamicAdjacency`] holds the symmetrically normalized propagation
//! matrix `Ã = (D+I)^{-1/2}(A+I)(D+I)^{-1/2}` as per-row sorted
//! `(column, value)` arrays plus the raw degree vector. Inserting an edge
//! or node **patches in place**: only the two endpoint rows and the rows of
//! their neighbors are rewritten (their normalization factors changed), an
//! O(deg(u) + deg(v) + Σ_{w∈N(u)∪N(v)} log deg(w)) update instead of the
//! O(n + m) full rebuild [`crate::gcn_adjacency`] pays.
//!
//! **Bitwise oracle.** [`DynamicAdjacency::from_edges`] slices its rows out
//! of the matrix `gcn_adjacency` builds, so a fresh adjacency equals the
//! rebuild by construction. Every patched value is then recomputed from the
//! *current* degrees with the exact float expressions `gcn_adjacency` uses —
//! `inv_sqrt(d) = 1.0 / ((d + 1) as f32).sqrt()` and entry
//! `inv_sqrt(deg_u) * inv_sqrt(deg_v)` (f32 multiplication is commutative,
//! so operand order is immaterial) — and rows stay sorted by column. A
//! [`DynamicAdjacency::snapshot`] therefore equals the from-scratch rebuild
//! **byte for byte**, which is the structural gate the serving tests pin.
//!
//! Rows touched since the last [`DynamicAdjacency::drain_touched`] are
//! recorded so callers can invalidate exactly the affected rows of any
//! cached intermediate (the serve engine's first-hop row cache).

use crate::csr::{CsrMatrix, COL_SKIP};
use crate::normalize::gcn_adjacency;
use skipnode_tensor::kstats;

/// One adjacency row stored CSR-style (parallel arrays, columns sorted).
#[derive(Debug, Clone, Default)]
struct AdjRow {
    cols: Vec<u32>,
    vals: Vec<f32>,
}

/// The normalization factor `gcn_adjacency` derives from a raw degree.
/// Shared by construction and patching so both produce identical bits.
#[inline]
fn inv_sqrt(deg: u32) -> f32 {
    1.0 / ((deg + 1) as f32).sqrt()
}

/// A GCN-normalized adjacency that absorbs edge/node insertions in place.
/// See the module docs for the patching and bitwise-oracle contract.
#[derive(Debug, Clone, Default)]
pub struct DynamicAdjacency {
    rows: Vec<AdjRow>,
    /// Raw neighbor counts (self-loops excluded).
    deg: Vec<u32>,
    /// Undirected edge count (self-loops excluded).
    edges: usize,
    /// Rows modified since the last drain (unsorted, may repeat).
    touched: Vec<u32>,
}

impl DynamicAdjacency {
    /// Build from undirected edges, with the same tolerances as
    /// [`crate::gcn_adjacency`]: the rows are sliced out of the matrix it
    /// builds, so a fresh adjacency is bitwise the same matrix.
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Self {
        Self::from_normalized(&gcn_adjacency(n, edges))
    }

    /// Take the rows of `adj`, a matrix [`crate::gcn_adjacency`] built (such
    /// as a graph's cached one), so no second adjacency is built. Degrees
    /// are read off the row lengths, which count each row's self-loop.
    pub fn from_normalized(adj: &CsrMatrix) -> Self {
        let n = adj.rows();
        let rows: Vec<AdjRow> = (0..n)
            .map(|r| {
                let (cols, vals) = adj.row(r);
                AdjRow {
                    cols: cols.to_vec(),
                    vals: vals.to_vec(),
                }
            })
            .collect();
        // Every row holds its diagonal, so a degree is the row length less one.
        let deg = rows.iter().map(|row| row.cols.len() as u32 - 1).collect();
        Self {
            rows,
            deg,
            edges: (adj.nnz() - n) / 2,
            touched: Vec::new(),
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.rows.len()
    }

    /// Number of undirected edges (self-loops excluded).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges
    }

    /// Number of stored entries (`2·edges + n` self-loops).
    #[inline]
    pub fn nnz(&self) -> usize {
        2 * self.edges + self.rows.len()
    }

    /// Raw degree (neighbor count) of one node.
    #[inline]
    pub fn degree(&self, u: usize) -> u32 {
        self.deg[u]
    }

    /// One row's sorted column indices and normalized values.
    #[inline]
    pub fn row(&self, r: usize) -> (&[u32], &[f32]) {
        let row = &self.rows[r];
        (&row.cols, &row.vals)
    }

    /// Whether the undirected edge `(u, v)` is present.
    pub fn contains_edge(&self, u: usize, v: usize) -> bool {
        u != v && self.rows[u].cols.binary_search(&(v as u32)).is_ok()
    }

    /// Append an isolated node (unit self-loop, as `gcn_adjacency` gives an
    /// isolated node) and return its id.
    pub fn add_node(&mut self) -> usize {
        let id = self.rows.len();
        self.rows.push(AdjRow {
            cols: vec![id as u32],
            vals: vec![1.0],
        });
        self.deg.push(0);
        self.touched.push(id as u32);
        id
    }

    /// Insert the undirected edge `(u, v)`, degree-rescaling both endpoint
    /// rows and the mirrored entries in their neighbors' rows. Returns
    /// `false` (and changes nothing) for self-loops and duplicates.
    ///
    /// # Panics
    /// Panics when an endpoint is out of range.
    pub fn add_edge(&mut self, u: usize, v: usize) -> bool {
        let n = self.rows.len();
        assert!(u < n && v < n, "edge endpoint out of range");
        if u == v || self.contains_edge(u, v) {
            return false;
        }
        self.deg[u] += 1;
        self.deg[v] += 1;
        self.edges += 1;
        // Both endpoints' normalization factors changed, so every entry in
        // their rows — and the mirror entry in each neighbor's row — must be
        // recomputed from current degrees before the new entry goes in.
        self.rescale_endpoint(u);
        self.rescale_endpoint(v);
        let w = inv_sqrt(self.deg[u]) * inv_sqrt(self.deg[v]);
        insert_entry(&mut self.rows[u], v as u32, w);
        insert_entry(&mut self.rows[v], u as u32, w);
        true
    }

    /// Rewrite row `u` (all values derive from `deg[u]`, which just
    /// changed) and the `(w → u)` mirror entry of every neighbor `w`.
    fn rescale_endpoint(&mut self, u: usize) {
        let inv_u = inv_sqrt(self.deg[u]);
        self.touched.push(u as u32);
        let deg = &self.deg;
        let row = &mut self.rows[u];
        for (&c, val) in row.cols.iter().zip(row.vals.iter_mut()) {
            let w = c as usize;
            *val = if w == u {
                inv_u * inv_u
            } else {
                inv_u * inv_sqrt(deg[w])
            };
        }
        // Mirror entries: neighbor rows store (w, u) with the same value.
        let neighbors: Vec<u32> = row
            .cols
            .iter()
            .copied()
            .filter(|&c| c as usize != u)
            .collect();
        self.touched.extend_from_slice(&neighbors);
        for c in neighbors {
            let w = c as usize;
            let val = inv_u * inv_sqrt(self.deg[w]);
            let row = &mut self.rows[w];
            let slot = row
                .cols
                .binary_search(&(u as u32))
                .expect("mirror entry present");
            row.vals[slot] = val;
        }
    }

    /// Rows modified since the last drain, sorted and deduplicated. The
    /// serve engine invalidates exactly these rows of its cached `Ã·X`.
    pub fn drain_touched(&mut self) -> Vec<u32> {
        let mut t = std::mem::take(&mut self.touched);
        t.sort_unstable();
        t.dedup();
        t
    }

    /// Materialize the current matrix as an immutable [`CsrMatrix`] —
    /// byte-identical to `gcn_adjacency(n, current_edges)`.
    pub fn snapshot(&self) -> CsrMatrix {
        let n = self.rows.len();
        let mut indptr = Vec::with_capacity(n + 1);
        indptr.push(0usize);
        let nnz = self.nnz();
        let mut indices = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        for row in &self.rows {
            indices.extend_from_slice(&row.cols);
            values.extend_from_slice(&row.vals);
            indptr.push(indices.len());
        }
        CsrMatrix::new(n, n, indptr, indices, values)
    }

    /// The block `Ã[rows, cols]` as a `rows.len() × cols.len()` matrix:
    /// block row `k` holds row `rows[k]`'s entries with each column
    /// renumbered to its position in `cols`. Both lists are ascending and
    /// duplicate-free, so every block row keeps its row's entry order and
    /// a product with the block computes each listed row exactly as the
    /// full product does, against an operand that holds only the rows
    /// `cols`. This is how frontier serving propagates one batch.
    ///
    /// # Panics
    /// Panics when a row is out of range or stores a column `cols` lacks.
    pub fn block(&self, rows: &[u32], cols: &[u32]) -> CsrMatrix {
        kstats::record(kstats::Kernel::ServeBlock, rows.len());
        let mut pos = vec![COL_SKIP; self.n()];
        for (k, &c) in cols.iter().enumerate() {
            pos[c as usize] = k as u32;
        }
        let nnz = rows.iter().map(|&r| self.rows[r as usize].cols.len()).sum();
        let mut indptr = Vec::with_capacity(rows.len() + 1);
        let mut indices = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        indptr.push(0);
        for &r in rows {
            let row = &self.rows[r as usize];
            for &c in &row.cols {
                let p = pos[c as usize];
                assert!(
                    p != COL_SKIP,
                    "block row {r} reads column {c}, absent from cols"
                );
                indices.push(p);
            }
            values.extend_from_slice(&row.vals);
            indptr.push(indices.len());
        }
        CsrMatrix::new(rows.len(), cols.len(), indptr, indices, values)
    }
}

/// Insert `(col, val)` into a sorted row.
fn insert_entry(row: &mut AdjRow, col: u32, val: f32) {
    let slot = match row.cols.binary_search(&col) {
        Err(s) => s,
        Ok(_) => unreachable!("duplicate entry was screened by add_edge"),
    };
    row.cols.insert(slot, col);
    row.vals.insert(slot, val);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_bitwise(dyn_adj: &DynamicAdjacency, edges: &[(usize, usize)]) {
        let want = gcn_adjacency(dyn_adj.n(), edges);
        let got = dyn_adj.snapshot();
        assert_eq!(got, want, "patched snapshot != rebuild");
    }

    #[test]
    fn construction_matches_rebuild_bitwise() {
        let edges = vec![(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)];
        let adj = DynamicAdjacency::from_edges(5, &edges);
        assert_bitwise(&adj, &edges);
        assert_eq!(adj.num_edges(), 5);
        assert_eq!(adj.degree(3), 3);
    }

    #[test]
    fn edge_inserts_match_rebuild_bitwise() {
        let mut edges = vec![(0, 1)];
        let mut adj = DynamicAdjacency::from_edges(6, &edges);
        for &(u, v) in &[(1, 2), (2, 3), (0, 4), (3, 4), (1, 5), (0, 5)] {
            assert!(adj.add_edge(u, v));
            edges.push((u, v));
            assert_bitwise(&adj, &edges);
        }
    }

    #[test]
    fn node_then_edge_matches_rebuild() {
        let mut adj = DynamicAdjacency::from_edges(3, &[(0, 1), (1, 2)]);
        let id = adj.add_node();
        assert_eq!(id, 3);
        assert!(adj.add_edge(id, 0));
        assert_bitwise(&adj, &[(0, 1), (1, 2), (3, 0)]);
    }

    #[test]
    fn duplicates_and_self_loops_are_rejected_without_change() {
        let mut adj = DynamicAdjacency::from_edges(3, &[(0, 1)]);
        adj.drain_touched();
        assert!(!adj.add_edge(0, 1));
        assert!(!adj.add_edge(1, 0));
        assert!(!adj.add_edge(2, 2));
        assert!(adj.drain_touched().is_empty());
        assert_bitwise(&adj, &[(0, 1)]);
    }

    #[test]
    fn touched_rows_cover_endpoints_and_neighbors() {
        // Star around node 0, then close an edge between two leaves.
        let mut adj = DynamicAdjacency::from_edges(5, &[(0, 1), (0, 2), (0, 3)]);
        adj.drain_touched();
        assert!(adj.add_edge(1, 2));
        let touched = adj.drain_touched();
        // Endpoints 1 and 2 changed; their shared neighbor 0 holds mirror
        // entries (0,1) and (0,2) that were rescaled. Node 3's row only
        // references 0 and itself — untouched. Node 4 isolated — untouched.
        assert_eq!(touched, vec![0, 1, 2]);
    }

    #[test]
    fn block_rows_match_the_snapshot_rows() {
        let edges = vec![(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 4)];
        let mut adj = DynamicAdjacency::from_edges(5, &edges);
        assert!(adj.add_edge(0, 2));
        let snap = adj.snapshot();
        // Over every column, a block row is the patched row itself.
        let rows = [1u32, 3];
        let cols = [0u32, 1, 2, 3, 4];
        let block = adj.block(&rows, &cols);
        assert_eq!((block.rows(), block.cols()), (2, 5));
        for (k, &r) in rows.iter().enumerate() {
            assert_eq!(block.row(k), snap.row(r as usize));
        }
        // Row 3 stores columns 2, 3 and 4: over just those, they become
        // 0, 1 and 2, in the same order and with the same values.
        let rows = [3u32];
        let cols = [2u32, 3, 4];
        let block = adj.block(&rows, &cols);
        let (c, v) = block.row(0);
        assert_eq!(c, &[0, 1, 2]);
        assert_eq!(v, snap.row(3).1);
    }
}
