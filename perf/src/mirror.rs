//! The traced training mirror: the per-epoch sequence of public calls that
//! `train_node_classifier` makes on its compiled engine, with a span
//! around each call and kernel counters read at every epoch boundary.
//!
//! The mirror must compute exactly what the trainer computes, or its
//! per-layer numbers describe some other program. [`Mirror::matches`]
//! holds it to that: losses and final parameters bitwise equal to the
//! trainer's at the same seed.

use crate::trace::{Key, Trace};
use skipnode_autograd::{softmax_cross_entropy, EpochSampler};
use skipnode_graph::{Graph, Split};
use skipnode_nn::{
    accuracy, compile_train_program, evaluate, mean_average_distance, Adam, AdamConfig, Model,
    Strategy, StrategySampler, TrainResult,
};
use skipnode_tensor::kstats::{self, KERNEL_COUNT};
use skipnode_tensor::{frobenius_norm, workspace, Matrix, SplitRng};

/// What one mirrored run measured.
pub struct Mirror {
    /// Mean training loss per epoch.
    pub losses: Vec<f64>,
    /// Parameters after the last epoch.
    pub params: Vec<Matrix>,
    /// Per-epoch training-step seconds (the trainer's `train_seconds`).
    pub step_seconds: Vec<f64>,
    /// Span id of each epoch's root span.
    pub epoch_spans: Vec<usize>,
    /// Per-epoch (calls, work) deltas of every kernel family.
    pub kernels: Vec<[(u64, u64); KERNEL_COUNT]>,
    /// Skip-mask entries drawn, and how many of them kept the row active.
    pub mask_rows: u64,
    pub active_rows: u64,
    /// Largest rise of the workspace's live bytes within one epoch.
    pub workspace_peak_bytes: i64,
}

/// An [`EpochSampler`] that times each skip-mask draw and counts rows.
struct TracedSampler<'a, 'b> {
    inner: StrategySampler<'a>,
    trace: &'b mut Trace,
    epoch: usize,
    rows: u64,
    active: u64,
}

impl EpochSampler for TracedSampler<'_, '_> {
    fn skip_mask(&mut self, rng: &mut SplitRng, out: &mut [bool]) {
        let id = self.trace.begin("core.skip_mask", Key::Epoch(self.epoch));
        self.inner.skip_mask(rng, out);
        self.trace.end(id);
        self.rows += out.len() as u64;
        self.active += out.iter().filter(|&&skip| !skip).count() as u64;
    }
}

/// Train `model` for `epochs` epochs exactly as `train_node_classifier`
/// does with `TrainConfig { patience: 0, eval_every: 1,
/// diagnostics_every: 1, ..Default::default() }` (compiled, fused engine,
/// default Adam, constant learning rate), recording spans into `trace`.
pub fn run(
    model: &mut dyn Model,
    graph: &Graph,
    split: &Split,
    strategy: &Strategy,
    epochs: usize,
    rng: &mut SplitRng,
    trace: &mut Trace,
) -> Result<Mirror, String> {
    let full_adj = graph.gcn_adjacency();
    let degrees = graph.degrees();
    let labels = graph.labels();
    let adj_list = graph.adjacency_list();
    let adam = AdamConfig::default();
    let mut opt = Adam::new(model.store(), adam);
    let mut program = trace
        .time("nn.compile", Key::Run, || {
            compile_train_program(&*model, graph, &full_adj, strategy, true)
        })
        .map_err(|e| e.to_string())?;
    program.enable_checkpointing(0);
    if program.heads().len() != 1 {
        return Err("the mirror reproduces single-head models only".into());
    }

    let mut out = Mirror {
        losses: Vec::with_capacity(epochs),
        params: Vec::new(),
        step_seconds: Vec::with_capacity(epochs),
        epoch_spans: Vec::with_capacity(epochs),
        kernels: Vec::with_capacity(epochs),
        mask_rows: 0,
        active_rows: 0,
        workspace_peak_bytes: 0,
    };
    for epoch in 0..epochs {
        let key = Key::Epoch(epoch);
        let counters = kstats::snapshot();
        // Per epoch: buffers allocated outside the workspace and given to it
        // lower its live count for good, so the level drifts across epochs.
        workspace::reset_peak();
        let live_at_start = workspace::stats().live_bytes;
        let root = trace.begin("epoch", key);
        let t0 = std::time::Instant::now();

        let adj = trace.time("nn.epoch_adjacency", key, || {
            strategy.epoch_adjacency_edges(graph.num_nodes(), graph.edges(), &full_adj, true, rng)
        });
        trace.time("autograd.set_adjacency", key, || program.set_adjacency(adj));
        trace.time("autograd.load_params", key, || {
            program.load_params(model.store().values())
        });
        let begin = trace.begin("autograd.begin_epoch", key);
        let mut fwd_rng = rng.split();
        let mut sampler = TracedSampler {
            inner: StrategySampler::new(strategy, &degrees).with_order(graph.node_order()),
            trace,
            epoch,
            rows: 0,
            active: 0,
        };
        program.begin_epoch(&mut sampler, &mut fwd_rng);
        out.mask_rows += sampler.rows;
        out.active_rows += sampler.active;
        trace.end(begin);
        trace.time("autograd.forward", key, || program.replay_forward());
        let head = program.heads()[0];
        let (loss, seed) = trace.time("autograd.loss", key, || {
            let out = softmax_cross_entropy(program.value(head), labels, &split.train);
            // The trainer also takes this norm for its diagnostics.
            std::hint::black_box(frobenius_norm(&out.grad));
            (out.loss, out.grad)
        });
        let mut grads = trace.time("autograd.backward", key, || {
            program.backward(vec![(head, seed)])
        });
        trace.time("nn.adam", key, || {
            opt.set_lr(adam.lr);
            opt.step(model.store_mut(), &grads)
        });
        trace.time("tensor.workspace_give", key, || {
            for g in grads.drain(..).flatten() {
                workspace::give(g);
            }
        });
        out.step_seconds.push(t0.elapsed().as_secs_f64());

        let mut eval_rng = rng.split();
        let (logits, penultimate) = trace.time("nn.evaluate", key, || {
            evaluate(&*model, graph, &full_adj, strategy, &mut eval_rng)
        });
        trace.time("nn.metrics", key, || {
            std::hint::black_box((
                accuracy(&logits, labels, &split.val),
                accuracy(&logits, labels, &split.test),
                model.store().total_l2_norm_sq(),
                penultimate.map(|p| mean_average_distance(&p, &adj_list)),
            ))
        });
        trace.end(root);

        let peak = workspace::stats().peak_live_bytes - live_at_start;
        out.workspace_peak_bytes = out.workspace_peak_bytes.max(peak);
        let after = kstats::snapshot();
        out.kernels.push(std::array::from_fn(|i| {
            (
                after[i].calls - counters[i].calls,
                after[i].work - counters[i].work,
            )
        }));
        out.losses.push(loss);
        out.epoch_spans.push(root);
    }
    out.params = model.store().values().cloned().collect();
    Ok(out)
}

impl Mirror {
    /// Check the mirror against the trainer's run at the same seed:
    /// per-epoch losses and final parameters must be bitwise equal.
    pub fn matches(&self, reference: &TrainResult, params: &[Matrix]) -> Result<(), String> {
        let ref_losses: Vec<u64> = reference
            .diagnostics
            .iter()
            .map(|d| d.train_loss.to_bits())
            .collect();
        let losses: Vec<u64> = self.losses.iter().map(|l| l.to_bits()).collect();
        if losses != ref_losses {
            return Err(format!(
                "traced mirror losses {:?} differ from the trainer's {:?}",
                self.losses,
                reference
                    .diagnostics
                    .iter()
                    .map(|d| d.train_loss)
                    .collect::<Vec<_>>()
            ));
        }
        let same = self.params.len() == params.len()
            && self
                .params
                .iter()
                .zip(params)
                .all(|(a, b)| a.shape() == b.shape() && same_bits(a.as_slice(), b.as_slice()));
        if !same {
            return Err("traced mirror's final parameters differ from the trainer's".into());
        }
        Ok(())
    }
}

/// Bitwise equality of two float slices (NaN-aware, sign-of-zero-aware).
pub fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}
