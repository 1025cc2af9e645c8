//! The fused SkipNode layer must demonstrably *skip* work: SpMM row work
//! (as recorded by `skipnode_sparse::stats`) has to scale with the
//! non-skipped fraction — the active rows in the forward, the rows of
//! their neighborhood N(active) in the backward. Kept alone in this file —
//! the counters are process-global, and a dedicated test binary keeps
//! concurrent tests from polluting the deltas.

use skipnode_autograd::Tape;
use skipnode_sparse::{stats, CooBuilder};
use skipnode_tensor::kstats::{self, Kernel};
use skipnode_tensor::{Matrix, SplitRng};
use std::sync::Arc;

/// Row work of one phase: the sparse row counter, and the calls and work
/// of the kstats families the fused layer records under.
#[derive(Debug, PartialEq)]
struct Work {
    rows: u64,
    subset: (u64, u64),
    compact: (u64, u64),
}

fn measure(f: impl FnOnce()) -> Work {
    let family = |k: Kernel| {
        let s = kstats::snapshot()[k as usize];
        (s.calls, s.work)
    };
    let (rows, subset, compact) = (
        stats::spmm_rows_computed(),
        family(Kernel::SpmmSubset),
        family(Kernel::SpmmCompact),
    );
    f();
    let delta = |a: (u64, u64), b: (u64, u64)| (b.0 - a.0, b.1 - a.1);
    Work {
        rows: stats::spmm_rows_computed() - rows,
        subset: delta(subset, family(Kernel::SpmmSubset)),
        compact: delta(compact, family(Kernel::SpmmCompact)),
    }
}

#[test]
fn fused_forward_row_work_scales_with_active_fraction() {
    kstats::set_enabled(true);
    let n = 600;
    let d = 12;
    let mut rng = SplitRng::new(5);
    let mut b = CooBuilder::new(n, n);
    for u in 0..n {
        b.push_symmetric(u, (u + 1) % n, 1.0);
        b.push_symmetric(u, (u + 7) % n, 0.5);
    }
    let adj_mat = Arc::new(b.build());
    let mut xv = Matrix::zeros(n, d);
    for v in xv.as_mut_slice() {
        *v = rng.normal();
    }

    // (forward, backward) work of one fused layer.
    let layer_work = |mask: &[bool]| -> (Work, Work) {
        let mut tape = Tape::new();
        let adj = tape.register_adj(Arc::clone(&adj_mat));
        let x = tape.param(xv.clone());
        let skip = tape.param(xv.clone());
        let w = tape.param(Matrix::eye(d));
        let bias = tape.param(Matrix::zeros(1, d));
        let mut out = None;
        let forward = measure(|| out = Some(tape.skip_conv(adj, x, skip, w, bias, mask)));
        let out = out.expect("recorded");
        let backward = measure(|| drop(tape.backward(out, Matrix::full(n, d, 1.0))));
        (forward, backward)
    };
    // |N(active)|: the columns the active rows read.
    let neighborhood = |mask: &[bool]| -> u64 {
        let mut seen = vec![false; n];
        for r in (0..n).filter(|&r| !mask[r]) {
            for &c in adj_mat.row(r).0 {
                seen[c as usize] = true;
            }
        }
        seen.iter().filter(|&&s| s).count() as u64
    };

    let none = vec![false; n];
    let quarter: Vec<bool> = (0..n).map(|i| i % 4 != 0).collect(); // 1 in 4 active
    let (full_fwd, full_bwd) = layer_work(&none);
    let (quarter_fwd, quarter_bwd) = layer_work(&quarter);
    assert_eq!(
        full_fwd.rows, n as u64,
        "unmasked fused layer computes every row"
    );
    assert_eq!(
        quarter_fwd.rows,
        (n / 4) as u64,
        "row work must equal the active-row count"
    );
    assert_eq!(
        (quarter_fwd.subset, quarter_fwd.compact),
        ((1, (n / 4) as u64), (0, 0)),
        "the forward counts under spmm_subset only"
    );

    // The backward computes Ãᵀ·dS on N(active) only: every other row of it
    // is zero. The ring's ±1 and ±7 neighbors of the multiples of 4 are the
    // odd nodes, half the graph.
    let nbr = neighborhood(&quarter);
    assert_eq!(nbr, (n / 2) as u64);
    assert_eq!(full_bwd.rows, neighborhood(&none));
    assert_eq!(
        quarter_bwd.rows, nbr,
        "backward row work must equal |N(active)|, not n"
    );
    assert_eq!(
        (quarter_bwd.subset, quarter_bwd.compact),
        ((0, 0), (1, nbr)),
        "the backward counts under spmm_compact only"
    );
}
