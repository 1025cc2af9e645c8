//! GCN adjacency normalization, including the masked variants that
//! DropEdge and DropNode re-run every epoch. All of them go through one
//! counting builder (`symmetric_gcn`), as do packed batches and the
//! serving adjacency.

use crate::csr::CsrMatrix;

/// Symmetrically normalized GCN propagation matrix with the
/// re-normalization trick of Kipf & Welling:
/// `Ã = (D+I)^{-1/2} (A+I) (D+I)^{-1/2}`.
///
/// `edges` are undirected pairs in either orientation; self-loops and
/// duplicates are tolerated (both are dropped). Self-loops are always
/// added for all `n` nodes.
///
/// # Panics
/// Panics if an endpoint is `>= n`.
pub fn gcn_adjacency(n: usize, edges: &[(usize, usize)]) -> CsrMatrix {
    symmetric_gcn(n, edges.iter().copied(), |_| true)
}

/// Same as [`gcn_adjacency`] but consuming an arbitrary edge iterator —
/// this is the entry point DropEdge uses after subsampling edges. The
/// iterator is drained exactly once.
pub fn gcn_adjacency_filtered(
    n: usize,
    edges: impl IntoIterator<Item = (usize, usize)>,
) -> CsrMatrix {
    let kept: Vec<(usize, usize)> = edges.into_iter().collect();
    symmetric_gcn(n, kept.iter().copied(), |_| true)
}

/// DropNode-style normalization: nodes with `keep[i] == false` are removed
/// from the propagation graph entirely — they keep no self-loop and no
/// incident edges (an empty row), so a GCN convolution zeroes their output
/// rows. Kept nodes are renormalized over the induced subgraph.
pub fn gcn_adjacency_with_node_mask(
    n: usize,
    edges: &[(usize, usize)],
    keep: &[bool],
) -> CsrMatrix {
    assert_eq!(keep.len(), n, "mask length");
    let kept = edges.iter().copied().filter(|&(u, v)| keep[u] && keep[v]);
    symmetric_gcn(n, kept, |i| keep[i])
}

/// The one symmetric-adjacency builder: `Ã` over the undirected `edges`,
/// with a diagonal entry on every node `i` for which `self_loop(i)` holds.
///
/// Two passes over `edges` count each row's candidate entries and scatter
/// both orientations of every non-loop edge into its row, after each row's
/// diagonal slot. Each row is then sorted and deduplicated in place,
/// compacting the one `indices` array with a forward write pointer (write
/// never passes read), so duplicates, both orientations and input
/// self-loops cost only their slack. A node's degree is its deduplicated
/// row length less its diagonal, and every entry is
/// `inv_sqrt[u] * inv_sqrt[v]` with `inv_sqrt[i] = 1 / sqrt(deg_i + 1)`.
fn symmetric_gcn<I>(n: usize, edges: I, self_loop: impl Fn(usize) -> bool) -> CsrMatrix
where
    I: Iterator<Item = (usize, usize)> + Clone,
{
    // Pass 1: `indptr[u + 1]` counts row u's candidates, then the prefix
    // sum (with one diagonal slot per looped row) turns counts into offsets.
    let mut indptr = vec![0usize; n + 1];
    for (u, v) in edges.clone() {
        assert!(u < n && v < n, "edge ({u},{v}) out of range for n={n}");
        if u != v {
            indptr[u + 1] += 1;
            indptr[v + 1] += 1;
        }
    }
    for i in 0..n {
        indptr[i + 1] += indptr[i] + usize::from(self_loop(i));
    }

    // Pass 2: diagonals first, then both orientations of each edge.
    let mut indices = vec![0u32; indptr[n]];
    let mut next = indptr[..n].to_vec();
    for (i, slot) in next.iter_mut().enumerate() {
        if self_loop(i) {
            indices[*slot] = i as u32;
            *slot += 1;
        }
    }
    for (u, v) in edges {
        if u != v {
            indices[next[u]] = v as u32;
            next[u] += 1;
            indices[next[v]] = u as u32;
            next[v] += 1;
        }
    }
    drop(next);

    // Sort and deduplicate each row, compacting in place.
    let mut write = 0usize;
    let mut read = 0usize;
    for u in 0..n {
        let end = indptr[u + 1];
        indices[read..end].sort_unstable();
        indptr[u] = write;
        let mut prev = u32::MAX;
        for r in read..end {
            let c = indices[r];
            if c != prev {
                indices[write] = c;
                write += 1;
                prev = c;
            }
        }
        read = end;
    }
    indptr[n] = write;
    indices.truncate(write);

    let inv_sqrt: Vec<f32> = (0..n)
        .map(|i| {
            let deg = indptr[i + 1] - indptr[i] - usize::from(self_loop(i));
            1.0 / ((deg + 1) as f32).sqrt()
        })
        .collect();
    let mut values = vec![0.0f32; write];
    for u in 0..n {
        let (lo, hi) = (indptr[u], indptr[u + 1]);
        for (val, &c) in values[lo..hi].iter_mut().zip(&indices[lo..hi]) {
            *val = inv_sqrt[u] * inv_sqrt[c as usize];
        }
    }
    CsrMatrix::new(n, n, indptr, indices, values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::CooBuilder;
    use crate::patch::DynamicAdjacency;
    use skipnode_tensor::SplitRng;

    /// The COO builder every normalization used before the counting
    /// builder: canonicalize, sort and dedup the pairs, count degrees, push
    /// both orientations and the kept diagonals, sort the entries. The
    /// counting builder must match it bit for bit.
    fn reference(n: usize, edges: &[(usize, usize)], keep: &[bool]) -> CsrMatrix {
        let mut seen: Vec<(usize, usize)> = edges
            .iter()
            .copied()
            .filter(|&(u, v)| u != v && keep[u] && keep[v])
            .map(|(u, v)| if u < v { (u, v) } else { (v, u) })
            .collect();
        seen.sort_unstable();
        seen.dedup();
        let mut deg = vec![0usize; n];
        for &(u, v) in &seen {
            deg[u] += 1;
            deg[v] += 1;
        }
        let inv_sqrt: Vec<f32> = deg.iter().map(|&d| 1.0 / ((d + 1) as f32).sqrt()).collect();
        let mut adj = CooBuilder::new(n, n);
        for &(u, v) in &seen {
            adj.push_symmetric(u, v, inv_sqrt[u] * inv_sqrt[v]);
        }
        for i in 0..n {
            if keep[i] {
                adj.push(i, i, inv_sqrt[i] * inv_sqrt[i]);
            }
        }
        adj.build()
    }

    /// Seeded unsorted edge lists with self-loops, duplicates in both
    /// orientations, and (through the sparse ones) isolated nodes.
    fn random_edge_lists() -> Vec<(usize, Vec<(usize, usize)>)> {
        let mut rng = SplitRng::new(21);
        let mut cases = Vec::new();
        for n in [2usize, 17, 100, 600] {
            for per_node in [0usize, 1, 4] {
                let m = n * per_node;
                let mut edges: Vec<(usize, usize)> =
                    (0..m).map(|_| (rng.below(n), rng.below(n))).collect();
                let flipped: Vec<(usize, usize)> =
                    edges.iter().step_by(3).map(|&(u, v)| (v, u)).collect();
                let repeated: Vec<(usize, usize)> = edges.iter().step_by(5).copied().collect();
                edges.extend(flipped);
                edges.extend(repeated);
                edges.push((n - 1, n - 1));
                rng.shuffle(&mut edges);
                cases.push((n, edges));
            }
        }
        cases
    }

    #[test]
    fn counting_builder_matches_the_coo_reference_bitwise() {
        for (n, edges) in random_edge_lists() {
            let want = reference(n, &edges, &vec![true; n]);
            assert_eq!(gcn_adjacency(n, &edges), want, "plain, n={n}");
            assert_eq!(
                DynamicAdjacency::from_edges(n, &edges).snapshot(),
                want,
                "dynamic snapshot, n={n}"
            );
        }
    }

    #[test]
    fn edge_and_node_drops_match_the_coo_reference_bitwise() {
        let mut rng = SplitRng::new(5);
        for (n, edges) in random_edge_lists() {
            let all = vec![true; n];
            assert_eq!(
                gcn_adjacency_filtered(n, edges.iter().copied()),
                reference(n, &edges, &all),
                "filtered (all kept), n={n}"
            );

            let kept: Vec<(usize, usize)> =
                edges.iter().copied().filter(|_| rng.unit() < 0.6).collect();
            assert_eq!(
                gcn_adjacency_filtered(n, kept.iter().copied()),
                reference(n, &kept, &all),
                "filtered, n={n}"
            );

            let keep: Vec<bool> = (0..n).map(|_| rng.unit() < 0.7).collect();
            let masked = gcn_adjacency_with_node_mask(n, &edges, &keep);
            assert_eq!(masked, reference(n, &edges, &keep), "node mask, n={n}");
            for (i, &k) in keep.iter().enumerate() {
                if !k {
                    assert_eq!(masked.row_nnz(i), 0, "dropped node {i} keeps a row");
                }
            }
        }
    }

    #[test]
    fn empty_and_isolated_nodes_are_fine() {
        for (n, edges) in [(0, vec![]), (1, vec![(0, 0)]), (4, vec![(1, 3)])] {
            let want = reference(n, &edges, &vec![true; n]);
            assert_eq!(gcn_adjacency(n, &edges), want, "n={n}");
            assert_eq!(
                DynamicAdjacency::from_edges(n, &edges).snapshot(),
                want,
                "n={n}"
            );
        }
        assert_eq!(gcn_adjacency(0, &[]).rows(), 0);
        let a = gcn_adjacency(4, &[(1, 3)]);
        assert_eq!(a.rows(), 4);
        // Isolated nodes keep only their unit self-loop.
        for i in [0, 2] {
            assert_eq!(a.row_nnz(i), 1, "node {i}");
            assert_eq!(a.get(i, i), 1.0, "node {i}");
        }
        assert_eq!(a.row_nnz(1), 2);
        assert_eq!(a.row_nnz(3), 2);
        assert!((a.get(3, 1) - 0.5).abs() < 1e-6);
    }

    /// Path graph 0-1-2.
    fn path_edges() -> Vec<(usize, usize)> {
        vec![(0, 1), (1, 2)]
    }

    #[test]
    fn gcn_adjacency_is_symmetric() {
        let a = gcn_adjacency(3, &path_edges());
        assert!(a.is_symmetric(1e-7));
    }

    #[test]
    fn gcn_adjacency_known_values() {
        // Node degrees (with self-loop): 2, 3, 2.
        let a = gcn_adjacency(3, &path_edges());
        assert!((a.get(0, 0) - 0.5).abs() < 1e-6);
        assert!((a.get(1, 1) - 1.0 / 3.0).abs() < 1e-6);
        assert!((a.get(0, 1) - 1.0 / (2.0f32 * 3.0).sqrt()).abs() < 1e-6);
        assert_eq!(a.get(0, 2), 0.0);
    }

    #[test]
    fn gcn_adjacency_row_spectrum_bounded() {
        // Ã has eigenvalues in (-1, 1]; row sums of |entries| ≤ 1 is not
        // generally true, but the constant-degree case makes Ã doubly
        // stochastic-ish: the all-sqrt(deg+1) vector is eigenvalue 1.
        let a = gcn_adjacency(3, &path_edges());
        let e = [(2.0f32).sqrt(), (3.0f32).sqrt(), (2.0f32).sqrt()];
        let mut out = [0.0f32; 3];
        a.spmv_into(&e, &mut out);
        for (o, x) in out.iter().zip(&e) {
            assert!((o - x).abs() < 1e-5, "{o} vs {x}");
        }
    }

    #[test]
    fn self_loops_and_duplicate_edges_tolerated() {
        let a = gcn_adjacency(2, &[(0, 1), (1, 0), (0, 0)]);
        assert!((a.get(0, 1) - 0.5).abs() < 1e-6);
        assert!((a.get(0, 0) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn isolated_node_keeps_unit_self_loop() {
        let a = gcn_adjacency(3, &[(0, 1)]);
        assert!((a.get(2, 2) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn node_mask_zeroes_dropped_rows_and_cols() {
        let a = gcn_adjacency_with_node_mask(3, &path_edges(), &[true, false, true]);
        // Node 1 dropped: no self loop, no edges; 0 and 2 now isolated.
        assert_eq!(a.row_nnz(1), 0);
        assert_eq!(a.get(0, 1), 0.0);
        assert_eq!(a.get(2, 1), 0.0);
        assert!((a.get(0, 0) - 1.0).abs() < 1e-6);
        assert!((a.get(2, 2) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn node_mask_keep_all_matches_plain() {
        let full = gcn_adjacency(3, &path_edges());
        let masked = gcn_adjacency_with_node_mask(3, &path_edges(), &[true; 3]);
        assert_eq!(full, masked);
    }
}
