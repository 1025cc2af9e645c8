//! The per-op timers must account for the executors: on a depth-16
//! SkipNode GCN the (phase, op kind) totals cover at least 95% of the wall
//! time of `replay_forward`, of `backward`, and of `Tape::run` on the same
//! model as evaluation runs it. Kept alone in this file: the totals and the
//! collection switch are process-global.

use skipnode_autograd::op_timers::{self, Phase};
use skipnode_autograd::{EpochSampler, NodeId, Tape, TrainProgram};
use skipnode_sparse::{CooBuilder, CsrMatrix};
use skipnode_tensor::{kstats, SplitRng};
use std::sync::Arc;
use std::time::{Duration, Instant};

const N: usize = 1500;
const F: usize = 48;
const D: usize = 64;
const CLASSES: usize = 7;
const DEPTH: usize = 16;
const DROPOUT: f64 = 0.5;
const SKIP: f64 = 0.5;

struct Uniform;

impl EpochSampler for Uniform {
    fn skip_mask(&mut self, rng: &mut SplitRng, out: &mut [bool]) {
        rng.fill_bernoulli(SKIP, out);
    }
}

fn adjacency(rng: &mut SplitRng) -> Arc<CsrMatrix> {
    let mut b = CooBuilder::new(N, N);
    for u in 0..N {
        b.push(u, u, 0.4);
        for _ in 0..3 {
            let v = rng.below(N);
            if v != u {
                b.push_symmetric(u, v, 0.1);
            }
        }
    }
    Arc::new(b.build())
}

/// Input layer, `DEPTH - 2` fused SkipNode layers each reading a dropout
/// of the previous layer, and a plain output layer.
fn record(adj_mat: &Arc<CsrMatrix>, init: &mut SplitRng, fwd: &mut SplitRng) -> (Tape, NodeId) {
    let mut tape = Tape::new();
    let adj = tape.register_adj(Arc::clone(adj_mat));
    let x = tape.constant(init.uniform_matrix(N, F, -1.0, 1.0));
    let w0 = tape.param(init.uniform_matrix(F, D, -0.2, 0.2));
    let b0 = tape.param(init.uniform_matrix(1, D, -0.1, 0.1));
    let xd = tape.dropout(x, DROPOUT, fwd);
    let p = tape.spmm(adj, xd);
    let z = tape.matmul(p, w0);
    let z = tape.add_bias(z, b0);
    let mut h = tape.relu(z);
    for _ in 0..DEPTH - 2 {
        let w = tape.param(init.uniform_matrix(D, D, -0.2, 0.2));
        let b = tape.param(init.uniform_matrix(1, D, -0.1, 0.1));
        let hd = tape.dropout(h, DROPOUT, fwd);
        let mut mask = vec![false; N];
        Uniform.skip_mask(fwd, &mut mask);
        h = tape.skip_conv(adj, hd, h, w, b, &mask);
    }
    let w = tape.param(init.uniform_matrix(D, CLASSES, -0.2, 0.2));
    let b = tape.param(init.uniform_matrix(1, CLASSES, -0.1, 0.1));
    let hd = tape.dropout(h, DROPOUT, fwd);
    let p = tape.spmm(adj, hd);
    let z = tape.matmul(p, w);
    let out = tape.add_bias(z, b);
    (tape, out)
}

/// The same layers as evaluation runs them, with no dropout and no
/// skipping, on an inference tape.
fn record_eval(adj_mat: &Arc<CsrMatrix>, init: &mut SplitRng) -> (Tape, NodeId) {
    let mut tape = Tape::inference();
    let adj = tape.register_adj(Arc::clone(adj_mat));
    let mut h = tape.constant(init.uniform_matrix(N, F, -1.0, 1.0));
    for l in 0..DEPTH {
        let fi = if l == 0 { F } else { D };
        let fo = if l == DEPTH - 1 { CLASSES } else { D };
        let w = tape.param(init.uniform_matrix(fi, fo, -0.2, 0.2));
        let b = tape.param(init.uniform_matrix(1, fo, -0.1, 0.1));
        let p = tape.spmm(adj, h);
        let z = tape.matmul(p, w);
        h = tape.add_bias(z, b);
        if l < DEPTH - 1 {
            h = tape.relu(h);
        }
    }
    (tape, h)
}

fn timed_sum(phase: Phase) -> Duration {
    let nanos = op_timers::snapshot()
        .iter()
        .filter(|t| t.phase == phase)
        .map(|t| t.nanos)
        .sum();
    Duration::from_nanos(nanos)
}

#[test]
fn per_op_totals_cover_replay_forward_and_backward() {
    let mut init = SplitRng::new(41);
    let adj_mat = adjacency(&mut init);
    let (tape, out) = record(&adj_mat, &mut init, &mut SplitRng::new(1));
    let mut prog = TrainProgram::compile(tape, vec![out]);
    let seed = init.uniform_matrix(N, CLASSES, -1.0, 1.0);
    let mut evals: Vec<_> = (0..4).map(|_| record_eval(&adj_mat, &mut init)).collect();

    kstats::set_enabled(true);
    op_timers::reset();
    let (mut forward, mut backward) = (Duration::ZERO, Duration::ZERO);
    for epoch in 0..4 {
        prog.begin_epoch(&mut Uniform, &mut SplitRng::new(100 + epoch));
        let t = Instant::now();
        prog.replay_forward();
        forward += t.elapsed();
        let t = Instant::now();
        let grads = prog.backward(vec![(out, seed.clone())]);
        backward += t.elapsed();
        assert!(
            grads.iter().all(Option::is_some),
            "every parameter gets a gradient"
        );
    }
    let mut inference = Duration::ZERO;
    for (tape, out) in &mut evals {
        let t = Instant::now();
        tape.run(&[*out]);
        inference += t.elapsed();
    }
    kstats::set_enabled(false);

    let times = op_timers::snapshot();
    for (kind, phases) in [
        ("skip_conv", &[Phase::Forward, Phase::Backward][..]),
        ("mask", &[Phase::Forward, Phase::Backward]),
        ("spmm", &[Phase::Forward, Phase::Backward, Phase::Inference]),
        (
            "matmul",
            &[Phase::Forward, Phase::Backward, Phase::Inference],
        ),
    ] {
        for &phase in phases {
            assert!(
                times
                    .iter()
                    .any(|t| t.op == kind && t.phase == phase && t.calls > 0),
                "{kind} {phase:?} was not timed: {times:?}"
            );
        }
    }
    for (phase, wall) in [
        (Phase::Forward, forward),
        (Phase::Backward, backward),
        (Phase::Inference, inference),
    ] {
        let covered = timed_sum(phase);
        assert!(
            covered <= wall,
            "{phase:?}: per-op sum {covered:?} exceeds wall {wall:?}"
        );
        assert!(
            covered.as_secs_f64() >= 0.95 * wall.as_secs_f64(),
            "{phase:?}: per-op sum {covered:?} covers less than 95% of wall {wall:?}"
        );
    }

    // Off again: nothing more is collected.
    op_timers::reset();
    prog.begin_epoch(&mut Uniform, &mut SplitRng::new(7));
    prog.replay_forward();
    let (mut tape, out) = record_eval(&adj_mat, &mut init);
    tape.run(&[out]);
    assert!(op_timers::snapshot().is_empty(), "timers collect while off");
}
