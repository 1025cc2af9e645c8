//! Structural oracle for incremental adjacency updates: a patched
//! [`DynamicAdjacency`] must be **byte-identical** to a from-scratch
//! [`gcn_adjacency`] rebuild after any sequence of edge/node insertions,
//! and a product with a block cut from it must produce the same bytes as
//! the full product of the rebuild even when it crosses the SpMM parallel
//! threshold.

use skipnode_sparse::{gcn_adjacency, CsrMatrix, DynamicAdjacency};
use skipnode_tensor::{Matrix, SplitRng};

/// Draw a random pair of distinct node ids.
fn random_pair(rng: &mut SplitRng, n: usize) -> (usize, usize) {
    let u = rng.below(n);
    let mut v = rng.below(n);
    while v == u {
        v = rng.below(n);
    }
    (u, v)
}

#[test]
fn randomized_insert_sequences_match_rebuild_bitwise() {
    let mut rng = SplitRng::new(0x51CE);
    for trial in 0..4 {
        let n0 = 40 + trial * 37;
        let mut edges: Vec<(usize, usize)> = (0..n0).map(|_| random_pair(&mut rng, n0)).collect();
        let mut adj = DynamicAdjacency::from_edges(n0, &edges);
        let mut n = n0;
        for step in 0..120 {
            if rng.below(10) == 0 {
                n = adj.add_node() + 1;
            } else {
                let (u, v) = random_pair(&mut rng, n);
                let inserted = adj.add_edge(u, v);
                assert_eq!(
                    inserted,
                    !edges.contains(&(u, v)) && !edges.contains(&(v, u))
                );
                if inserted {
                    edges.push((u, v));
                }
            }
            if step % 15 == 14 {
                let want = gcn_adjacency(n, &edges);
                assert_eq!(adj.snapshot(), want, "trial {trial} step {step}");
            }
        }
        let want = gcn_adjacency(n, &edges);
        assert_eq!(adj.snapshot(), want, "trial {trial} final");
    }
}

#[test]
fn untouched_rows_are_bitwise_stable_across_patches() {
    let mut rng = SplitRng::new(0xD00D);
    let n = 160;
    let edges: Vec<(usize, usize)> = (0..3 * n).map(|_| random_pair(&mut rng, n)).collect();
    let mut adj = DynamicAdjacency::from_edges(n, &edges);
    adj.drain_touched();
    for _ in 0..40 {
        let before = adj.snapshot();
        let (u, v) = random_pair(&mut rng, n);
        adj.add_edge(u, v);
        let touched = adj.drain_touched();
        let after = adj.snapshot();
        for r in 0..n {
            if touched.binary_search(&(r as u32)).is_err() {
                assert_eq!(
                    before.row(r),
                    after.row(r),
                    "row {r} changed without being reported touched"
                );
            }
        }
    }
}

/// Block product large enough that the pooled dispatch path runs
/// (`block nnz * d >= SPMM_PARALLEL_THRESHOLD`): patched rows cut into a
/// serving block must match the immutable-CSR full product bit-for-bit.
#[test]
fn frontier_kernel_bitwise_across_parallel_threshold() {
    let mut rng = SplitRng::new(0xBEEF);
    let n = 2_000usize;
    let d = 96usize;
    // Hub-heavy graph so a modest subset carries a lot of nonzeros.
    let mut edges: Vec<(usize, usize)> = Vec::new();
    for v in 1..n {
        edges.push((v % 17, v)); // 17 hubs
        edges.push(random_pair(&mut rng, n));
    }
    let mut adj = DynamicAdjacency::from_edges(n, &edges);
    for _ in 0..200 {
        let (u, v) = random_pair(&mut rng, n);
        adj.add_edge(u, v);
    }
    let snapshot: CsrMatrix = adj.snapshot();
    let x = rng.uniform_matrix(n, d, -1.0, 1.0);

    // Subset = the hubs plus a swath of ordinary rows.
    let rows: Vec<u32> = (0..n as u32).filter(|&r| r < 17 || r % 2 == 0).collect();
    let sub_nnz: usize = rows.iter().map(|&r| snapshot.row_nnz(r as usize)).sum();
    assert!(
        sub_nnz * d >= skipnode_sparse::SPMM_PARALLEL_THRESHOLD,
        "workload must cross the parallel threshold ({} < {})",
        sub_nnz * d,
        skipnode_sparse::SPMM_PARALLEL_THRESHOLD
    );

    let identity: Vec<u32> = (0..n as u32).collect();
    let got = adj.block(&rows, &identity).spmm(&x);

    // Oracle: the full (serial-order) product restricted to the subset.
    let full = snapshot.spmm(&x);
    for (k, &r) in rows.iter().enumerate() {
        assert_eq!(
            got.row(k),
            full.row(r as usize),
            "row {r} differs from the full product"
        );
    }

    // A frontier-compacted operand (only the rows any subset row reads)
    // must give the same bytes as the full operand.
    let mut needed = vec![false; n];
    for &r in &rows {
        let (cols, _) = snapshot.row(r as usize);
        for &c in cols {
            needed[c as usize] = true;
        }
    }
    let compact_rows: Vec<u32> = (0..n as u32).filter(|&c| needed[c as usize]).collect();
    let mut x_compact = Matrix::zeros(compact_rows.len(), d);
    for (k, &c) in compact_rows.iter().enumerate() {
        x_compact.row_mut(k).copy_from_slice(x.row(c as usize));
    }
    let got_compact = adj.block(&rows, &compact_rows).spmm(&x_compact);
    assert_eq!(got, got_compact, "compacted operand changed the bytes");
}
