//! Peak-residency check for checkpointed replay.
//!
//! The workspace counters are process-global, so this file holds exactly
//! one test: a deep matmul+relu chain trained with and without tape-level
//! gradient checkpointing, asserting both bitwise parity and a real peak
//! reduction.

use skipnode_autograd::{EpochSampler, NodeId, Tape, TrainProgram};
use skipnode_tensor::{workspace, Matrix, SplitRng};

struct NoSkips;

impl EpochSampler for NoSkips {
    fn skip_mask(&mut self, _rng: &mut SplitRng, out: &mut [bool]) {
        out.iter_mut().for_each(|o| *o = false);
    }
}

const DEPTH: usize = 64;

fn record_chain(tape: &mut Tape, x: &Matrix, w: &Matrix) -> NodeId {
    let xn = tape.constant(x.clone());
    let wn = tape.param(w.clone());
    let mut h = xn;
    for _ in 0..DEPTH {
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

#[test]
fn checkpointing_cuts_peak_residency_without_changing_results() {
    let mut init = SplitRng::new(42);
    let rows = 64;
    let x = init.uniform_matrix(rows, 32, -1.0, 1.0);
    let w = init.uniform_matrix(32, 32, -0.2, 0.2);

    let build = |segments: usize| {
        let mut tape = Tape::new();
        let out = record_chain(&mut tape, &x, &w);
        let mut prog = TrainProgram::compile(tape, vec![out]);
        prog.enable_checkpointing(segments);
        prog
    };

    let mut plain = build(0);
    let mut ck = build(8);
    let (plain_peak, plain_val, plain_gw) = measured_epoch(&mut plain, &w, rows);
    let (ck_peak, ck_val, ck_gw) = measured_epoch(&mut ck, &w, rows);

    assert_eq!(plain_val.as_slice(), ck_val.as_slice(), "values diverge");
    assert_eq!(plain_gw.as_slice(), ck_gw.as_slice(), "dW diverges");
    workspace::give(plain_gw);
    workspace::give(ck_gw);

    // Depth-64 retains ~one activation per layer without checkpointing;
    // 8 segments should keep roughly boundaries + one segment live. A 2x
    // margin leaves plenty of slack for gradient traffic.
    assert!(
        ck_peak * 2 < plain_peak,
        "checkpointed peak {ck_peak} not well below plain peak {plain_peak}"
    );
}
