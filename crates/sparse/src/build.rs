//! COO → CSR construction helpers.

use crate::csr::CsrMatrix;

/// Incremental COO builder that sorts, deduplicates (summing duplicates),
/// and emits a valid [`CsrMatrix`].
///
/// This is the test-construction helper: tests and the normalization
/// builder's reference use it to write matrices by hand, and no production
/// path calls it. Every GCN adjacency comes from the counting builder
/// behind [`crate::gcn_adjacency`].
#[derive(Debug, Clone)]
pub struct CooBuilder {
    rows: usize,
    cols: usize,
    entries: Vec<(u32, u32, f32)>,
}

impl CooBuilder {
    /// New builder for a `rows x cols` matrix.
    pub fn new(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            entries: Vec::new(),
        }
    }

    /// Reserve capacity for `n` additional entries.
    pub fn reserve(&mut self, n: usize) {
        self.entries.reserve(n);
    }

    /// Push one entry. Duplicates are summed at build time.
    ///
    /// # Panics
    /// Panics if the coordinate is out of range.
    pub fn push(&mut self, r: usize, c: usize, v: f32) {
        assert!(
            r < self.rows && c < self.cols,
            "entry ({r},{c}) out of range"
        );
        self.entries.push((r as u32, c as u32, v));
    }

    /// Push both `(r,c,v)` and `(c,r,v)` (undirected edge).
    pub fn push_symmetric(&mut self, r: usize, c: usize, v: f32) {
        self.push(r, c, v);
        if r != c {
            self.push(c, r, v);
        }
    }

    /// Number of raw (pre-dedup) entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries have been pushed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Sort, merge duplicates, and build the CSR matrix.
    pub fn build(mut self) -> CsrMatrix {
        self.entries.sort_unstable_by_key(|e| (e.0, e.1));
        let mut indptr = Vec::with_capacity(self.rows + 1);
        let mut indices: Vec<u32> = Vec::with_capacity(self.entries.len());
        let mut values: Vec<f32> = Vec::with_capacity(self.entries.len());
        indptr.push(0);
        let mut row = 0usize;
        let mut prev: Option<(u32, u32)> = None;
        for (r, c, v) in self.entries {
            if prev == Some((r, c)) {
                *values.last_mut().expect("merge target exists") += v;
                continue;
            }
            prev = Some((r, c));
            let r = r as usize;
            while row < r {
                indptr.push(indices.len());
                row += 1;
            }
            indices.push(c);
            values.push(v);
        }
        while row < self.rows {
            indptr.push(indices.len());
            row += 1;
        }
        CsrMatrix::new(self.rows, self.cols, indptr, indices, values)
    }
}

/// Normalize an undirected edge list: order endpoints, drop self-loops,
/// sort, and deduplicate. Returns canonical `(u, v)` pairs with `u < v`.
pub fn dedup_undirected_edges(edges: &[(usize, usize)]) -> Vec<(usize, usize)> {
    let mut out: Vec<(usize, usize)> = edges
        .iter()
        .filter(|(u, v)| u != v)
        .map(|&(u, v)| if u < v { (u, v) } else { (v, u) })
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_sorted_csr() {
        let mut b = CooBuilder::new(3, 3);
        b.push(2, 0, 4.0);
        b.push(0, 2, 2.0);
        b.push(0, 0, 1.0);
        b.push(1, 1, 3.0);
        let m = b.build();
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(0, 2), 2.0);
        assert_eq!(m.get(1, 1), 3.0);
        assert_eq!(m.get(2, 0), 4.0);
        assert_eq!(m.nnz(), 4);
    }

    #[test]
    fn duplicates_are_summed() {
        let mut b = CooBuilder::new(2, 2);
        b.push(0, 1, 1.0);
        b.push(0, 1, 2.5);
        let m = b.build();
        assert_eq!(m.get(0, 1), 3.5);
        assert_eq!(m.nnz(), 1);
    }

    #[test]
    fn empty_rows_are_handled() {
        let mut b = CooBuilder::new(4, 4);
        b.push(3, 3, 1.0);
        let m = b.build();
        assert_eq!(m.row_nnz(0), 0);
        assert_eq!(m.row_nnz(3), 1);
    }

    #[test]
    fn empty_builder_yields_zero_matrix() {
        let m = CooBuilder::new(3, 2).build();
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 2);
    }

    #[test]
    fn symmetric_push_adds_both_directions() {
        let mut b = CooBuilder::new(3, 3);
        b.push_symmetric(0, 2, 1.0);
        b.push_symmetric(1, 1, 5.0); // diagonal: single entry
        let m = b.build();
        assert_eq!(m.get(0, 2), 1.0);
        assert_eq!(m.get(2, 0), 1.0);
        assert_eq!(m.get(1, 1), 5.0);
        assert_eq!(m.nnz(), 3);
    }

    #[test]
    fn dedup_edges_canonicalizes() {
        let edges = vec![(2, 1), (1, 2), (0, 0), (3, 1), (1, 3)];
        let d = dedup_undirected_edges(&edges);
        assert_eq!(d, vec![(1, 2), (1, 3)]);
    }
}
