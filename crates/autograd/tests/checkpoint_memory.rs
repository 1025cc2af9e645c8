//! Peak-residency check for checkpointed replay.
//!
//! The workspace counters are process-global, so this file holds exactly
//! one test: a deep matmul+relu chain trained with and without tape-level
//! gradient checkpointing, asserting bitwise parity, a real peak
//! reduction, that the checkpointed deep chain stays near the peak of a
//! plain shallow one, and that compiled replay of the shallow chain peaks
//! below the same chain on an eager tape.

use skipnode_autograd::{EpochSampler, NodeId, Tape, TrainProgram};
use skipnode_tensor::{workspace, Matrix, SplitRng};

struct NoSkips;

impl EpochSampler for NoSkips {
    fn skip_mask(&mut self, _rng: &mut SplitRng, out: &mut [bool]) {
        out.iter_mut().for_each(|o| *o = false);
    }
}

fn record_chain(tape: &mut Tape, x: &Matrix, w: &Matrix, depth: usize) -> NodeId {
    let xn = tape.constant(x.clone());
    let wn = tape.param(w.clone());
    let mut h = xn;
    for _ in 0..depth {
        let z = tape.matmul(h, wn);
        h = tape.relu(z);
    }
    h
}

/// One warm-up epoch, then a measured epoch: returns
/// (peak_live_bytes, head value, dW).
fn measured_epoch(prog: &mut TrainProgram, w: &Matrix, rows: usize) -> (i64, Matrix, Matrix) {
    let mut result = (0i64, Matrix::zeros(0, 0), Matrix::zeros(0, 0));
    for pass in 0..2 {
        let mut rng = SplitRng::new(7);
        prog.load_params([w]);
        prog.begin_epoch(&mut NoSkips, &mut rng);
        if pass == 1 {
            workspace::reset_peak();
        }
        prog.replay_forward();
        let out = *prog.heads().last().expect("one head");
        let value = prog.value(out).clone();
        let mut grads = prog.backward(vec![(out, Matrix::full(rows, w.cols(), 1.0))]);
        let gw = grads[0].take().expect("dW");
        if pass == 1 {
            result = (workspace::stats().peak_live_bytes, value, gw);
        } else {
            workspace::give(gw);
        }
    }
    result
}

/// The same protocol on the eager path: a fresh tape recorded and
/// differentiated per epoch, one warm-up epoch, then a measured one.
/// Returns the measured epoch's peak_live_bytes.
fn measured_eager_epoch(x: &Matrix, w: &Matrix, depth: usize) -> i64 {
    let mut peak = 0;
    for pass in 0..2 {
        if pass == 1 {
            workspace::reset_peak();
        }
        let mut tape = Tape::new();
        let out = record_chain(&mut tape, x, w, depth);
        let seed = Matrix::full(x.rows(), w.cols(), 1.0);
        let wn = tape.params()[0];
        let mut grads = tape.backward(out, seed);
        workspace::give(grads.take(wn).expect("dW"));
        drop(grads);
        drop(tape);
        if pass == 1 {
            peak = workspace::stats().peak_live_bytes;
        }
    }
    peak
}

#[test]
fn checkpointing_cuts_peak_residency_without_changing_results() {
    let mut init = SplitRng::new(42);
    let rows = 64;
    let x = init.uniform_matrix(rows, 32, -1.0, 1.0);
    let w = init.uniform_matrix(32, 32, -0.2, 0.2);

    let build = |depth: usize, segments: usize| {
        let mut tape = Tape::new();
        let out = record_chain(&mut tape, &x, &w, depth);
        let mut prog = TrainProgram::compile(tape, vec![out]);
        prog.enable_checkpointing(segments);
        prog
    };

    // The plain depth-16 peak is the budget for the checkpointed depth-64
    // chain below.
    let (shallow_peak, _, shallow_gw) = measured_epoch(&mut build(16, 0), &w, rows);
    workspace::give(shallow_gw);

    let mut plain = build(64, 0);
    let mut ck = build(64, 8);
    let (plain_peak, plain_val, plain_gw) = measured_epoch(&mut plain, &w, rows);
    let (ck_peak, ck_val, ck_gw) = measured_epoch(&mut ck, &w, rows);

    assert_eq!(plain_val.as_slice(), ck_val.as_slice(), "values diverge");
    assert_eq!(plain_gw.as_slice(), ck_gw.as_slice(), "dW diverges");
    workspace::give(plain_gw);
    workspace::give(ck_gw);
    // Measured last, with the programs above dropped, so their peaks read
    // as before. Buffers those runs gave back without taking (seeds,
    // cloned leaves) leave the live count lower here, which only
    // understates the eager peak.
    drop(plain);
    drop(ck);
    let eager_peak = measured_eager_epoch(&x, &w, 16);

    // Depth-64 retains ~one activation per layer without checkpointing;
    // 8 segments should keep roughly boundaries + one segment live. A 2x
    // margin leaves plenty of slack for gradient traffic.
    assert!(
        ck_peak * 2 < plain_peak,
        "checkpointed peak {ck_peak} not well below plain peak {plain_peak}"
    );
    // Checkpointing keeps depth 64 within 2x of the plain depth-16 peak
    // instead of scaling linearly with depth.
    assert!(
        ck_peak <= 2 * shallow_peak,
        "depth-64 checkpointed peak {ck_peak} exceeds 2x the depth-16 plain peak {shallow_peak}"
    );
    // Compiled replay recycles buffers by precomputed lifetimes; the eager
    // tape keeps every forward value alive until it drops.
    assert!(
        shallow_peak < eager_peak,
        "compiled depth-16 peak {shallow_peak} not below the eager tape's {eager_peak}"
    );
}
