//! The classification training harness: node-level (single graph or
//! packed batch) and graph-level (packed batch + readout head) share one
//! core loop over a [`TrainData`] view.

use crate::context::{ForwardCtx, Strategy};
use crate::diagnostics::{DiagnosticsRecorder, EpochDiagnostics};
use crate::engine::{compile_probe, StrategySampler};
use crate::metrics::{accuracy, mean_average_distance};
use crate::models::{Consistency, Model};
use crate::optim::{Adam, AdamConfig};
use crate::schedule::{clip_global_norm, LrSchedule};
use skipnode_autograd::{softmax_cross_entropy, Tape, TrainProgram};
use skipnode_graph::{Graph, GraphBatch, Split};
use skipnode_sparse::CsrMatrix;
use skipnode_tensor::{workspace, Matrix, SegmentTable, SplitRng};
use std::sync::Arc;

/// Which executor drives the per-epoch training step.
///
/// Both executors are bit-identical: same losses, same gradients, same
/// parameter trajectories, same RNG streams (the equivalence tests in
/// `tests/train_engine_identity.rs` pin this for every backbone).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TrainEngine {
    /// Compile the model's tape once per run and replay it every epoch.
    #[default]
    Compiled,
    /// Record a fresh eager tape every epoch (the reference path).
    Eager,
}

/// Training-loop configuration.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Maximum epochs.
    pub epochs: usize,
    /// Early-stopping patience on validation accuracy (0 disables).
    pub patience: usize,
    /// Optimizer settings (lr, weight decay, …).
    pub adam: AdamConfig,
    /// Evaluate every this many epochs.
    pub eval_every: usize,
    /// Record [`EpochDiagnostics`] every this many epochs (0 disables).
    pub diagnostics_every: usize,
    /// Compute MAD on recorded epochs (costs one extra metric pass).
    pub record_mad: bool,
    /// Learning-rate schedule applied on top of `adam.lr`.
    pub lr_schedule: LrSchedule,
    /// Optional global-norm gradient clipping threshold.
    pub clip_norm: Option<f64>,
    /// Per-epoch executor (see [`TrainEngine`]).
    pub engine: TrainEngine,
    /// Route SkipNode middle layers through the fused masked kernel.
    pub fuse: bool,
    /// Tape-level gradient checkpointing for the compiled engine: split
    /// the schedule into this many recompute segments (`0`/`1` disables).
    /// Bitwise-neutral — forward values and gradients are unchanged; only
    /// peak activation residency drops. Ignored by the eager engine.
    pub checkpoint_segments: usize,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 200,
            patience: 40,
            adam: AdamConfig::default(),
            eval_every: 1,
            diagnostics_every: 0,
            record_mad: false,
            lr_schedule: LrSchedule::Constant,
            clip_norm: None,
            engine: TrainEngine::default(),
            fuse: true,
            checkpoint_segments: 0,
        }
    }
}

/// Everything the core training loop needs from its data source, borrowed
/// from either a single [`Graph`] or a packed [`GraphBatch`]. `labels` and
/// the split index the *rows of the model's logits* — nodes for node
/// classification, graphs for graph classification (where the plan ends in
/// a readout) — so one loop serves both protocols.
pub(crate) struct TrainData<'a> {
    pub features: Arc<Matrix>,
    pub degrees: Vec<usize>,
    pub labels: &'a [usize],
    pub full_adj: Arc<CsrMatrix>,
    pub edges: &'a [(usize, usize)],
    pub n: usize,
    pub segments: Option<&'a Arc<SegmentTable>>,
}

impl<'a> TrainData<'a> {
    pub(crate) fn from_graph(graph: &'a Graph) -> Self {
        Self {
            features: graph.features_arc(),
            degrees: graph.degrees(),
            labels: graph.labels(),
            full_adj: graph.gcn_adjacency(),
            edges: graph.edges(),
            n: graph.num_nodes(),
            segments: None,
        }
    }

    fn from_batch(batch: &'a GraphBatch, labels: &'a [usize]) -> Self {
        Self {
            features: batch.features_arc(),
            degrees: batch.degrees().to_vec(),
            labels,
            full_adj: batch.gcn_adjacency(),
            edges: batch.edges(),
            n: batch.num_nodes(),
            segments: Some(batch.segments()),
        }
    }
}

/// Outcome of a training run.
#[derive(Debug, Clone)]
pub struct TrainResult {
    /// Test accuracy at the best-validation epoch (the reported number).
    pub test_accuracy: f64,
    /// Best validation accuracy.
    pub val_accuracy: f64,
    /// Epoch achieving the best validation accuracy.
    pub best_epoch: usize,
    /// Epochs actually run (≤ `epochs` with early stopping).
    pub epochs_run: usize,
    /// Recorded per-epoch diagnostics (empty unless enabled).
    pub diagnostics: Vec<EpochDiagnostics>,
    /// MAD of the penultimate features at the final evaluation (Fig. 5b).
    pub final_mad: Option<f64>,
}

/// Evaluation forward pass on the full graph: returns logits and, when the
/// model exposes one, the penultimate representation.
///
/// Runs on a no-grad inference tape: the forward is recorded shape-only,
/// then [`Tape::run`] materializes just the logits/penultimate dependency
/// cone, recycling every intermediate at its last use. The outputs are
/// moved out of the tape, not cloned.
pub fn evaluate(
    model: &dyn Model,
    graph: &Graph,
    full_adj: &Arc<CsrMatrix>,
    strategy: &Strategy,
    rng: &mut SplitRng,
) -> (Matrix, Option<Matrix>) {
    let mut data = TrainData::from_graph(graph);
    data.full_adj = Arc::clone(full_adj);
    evaluate_data(Tape::inference(), model, &data, strategy, rng)
}

/// [`evaluate`] over a packed multi-graph batch: the forward runs with
/// segment-aware semantics, so readout plans return `num_graphs × C`
/// graph logits (node-level plans return packed node logits).
pub fn evaluate_packed(
    model: &dyn Model,
    batch: &GraphBatch,
    strategy: &Strategy,
    rng: &mut SplitRng,
) -> (Matrix, Option<Matrix>) {
    let data = TrainData::from_batch(batch, batch.node_labels());
    evaluate_data(Tape::inference(), model, &data, strategy, rng)
}

/// [`evaluate`] on the int8 inference tape: leaf weight matrices are
/// quantized per column (symmetric, i8) and dense products run through the
/// integer GEMM with i32 accumulation. Tolerance-class — logits track the
/// f32 path but are not bitwise equal; argmax agreement is what the
/// accuracy gate in `tests/precision_gates.rs` checks.
pub fn evaluate_quantized(
    model: &dyn Model,
    graph: &Graph,
    full_adj: &Arc<CsrMatrix>,
    strategy: &Strategy,
    rng: &mut SplitRng,
) -> (Matrix, Option<Matrix>) {
    let mut data = TrainData::from_graph(graph);
    data.full_adj = Arc::clone(full_adj);
    evaluate_data(Tape::inference_quantized(), model, &data, strategy, rng)
}

fn evaluate_data(
    mut tape: Tape,
    model: &dyn Model,
    data: &TrainData<'_>,
    strategy: &Strategy,
    rng: &mut SplitRng,
) -> (Matrix, Option<Matrix>) {
    let binding = model.store().bind(&mut tape);
    let adj = tape.register_adj(Arc::clone(&data.full_adj));
    let x = tape.constant_shared(Arc::clone(&data.features));
    let mut ctx = ForwardCtx::new(adj, x, &data.degrees, strategy, false, rng);
    ctx.segments = data.segments;
    let out = model.forward(&mut tape, &binding, &mut ctx);
    let mut keep = vec![out];
    if let Some(p) = ctx.penultimate {
        if p != out {
            keep.push(p);
        }
    }
    tape.run(&keep);
    let penultimate = ctx.penultimate.map(|p| {
        if p == out {
            workspace::take_copy(tape.value(out))
        } else {
            tape.take_value(p)
        }
    });
    (tape.take_value(out), penultimate)
}

/// Train a node classifier; returns the standard "test accuracy at best
/// validation epoch" protocol plus optional diagnostics.
pub fn train_node_classifier(
    model: &mut dyn Model,
    graph: &Graph,
    split: &Split,
    strategy: &Strategy,
    cfg: &TrainConfig,
    rng: &mut SplitRng,
) -> TrainResult {
    split.validate(graph.num_nodes());
    let data = TrainData::from_graph(graph);
    train_classifier_core(model, &data, split, strategy, cfg, rng, Some(graph))
}

/// Train a *node* classifier over a packed multi-graph batch: the split
/// indexes packed node rows and the loss is the usual per-node softmax
/// cross-entropy. A 1-graph batch is byte-identical to
/// [`train_node_classifier`] on that graph (same losses, gradients, RNG
/// stream, and final parameters) — `tests/packed_identity.rs` pins it.
pub fn train_packed_node_classifier(
    model: &mut dyn Model,
    batch: &GraphBatch,
    split: &Split,
    strategy: &Strategy,
    cfg: &TrainConfig,
    rng: &mut SplitRng,
) -> TrainResult {
    split.validate(batch.num_nodes());
    let data = TrainData::from_batch(batch, batch.node_labels());
    train_classifier_core(model, &data, split, strategy, cfg, rng, None)
}

/// Train a *graph* classifier over a packed batch: the model's plan must
/// end in a [`crate::plan::PlanOp::Readout`] (e.g.
/// [`crate::models::GraphClassifier`]) so logits are `num_graphs × C`;
/// the split indexes graphs and the loss is batched cross-entropy over
/// the train graphs' rows.
pub fn train_graph_classifier(
    model: &mut dyn Model,
    batch: &GraphBatch,
    split: &Split,
    strategy: &Strategy,
    cfg: &TrainConfig,
    rng: &mut SplitRng,
) -> TrainResult {
    split.validate(batch.num_graphs());
    let data = TrainData::from_batch(batch, batch.graph_labels());
    train_classifier_core(model, &data, split, strategy, cfg, rng, None)
}

fn train_classifier_core(
    model: &mut dyn Model,
    data: &TrainData<'_>,
    split: &Split,
    strategy: &Strategy,
    cfg: &TrainConfig,
    rng: &mut SplitRng,
    diag_graph: Option<&Graph>,
) -> TrainResult {
    let adj_list = (cfg.record_mad || cfg.diagnostics_every > 0)
        .then(|| diag_graph.map(|g| g.adjacency_list()))
        .flatten();
    let mut opt = Adam::new(model.store(), cfg.adam);
    let mut recorder = DiagnosticsRecorder::new(cfg.diagnostics_every);
    let mut program = compile_for(model, data, strategy, cfg);

    let mut selection = Selection::new();
    let mut epochs_run = 0usize;
    let mut last_mad = None;

    for epoch in 0..cfg.epochs {
        epochs_run = epoch + 1;
        let epoch_t0 = std::time::Instant::now();
        let (mean_loss, first_grad_norm, param_grads) = train_step(
            model,
            data,
            split,
            program.as_mut(),
            strategy,
            cfg.fuse,
            rng,
        );
        apply_update(model, &mut opt, cfg, epoch, param_grads);
        let train_seconds = epoch_t0.elapsed().as_secs_f64();

        // ---- evaluation ----
        let should_eval = epoch % cfg.eval_every == 0 || epoch + 1 == cfg.epochs;
        let wants_diag = recorder.wants(epoch);
        if should_eval || wants_diag {
            let mut eval_rng = rng.split();
            let (logits, penultimate) =
                evaluate_data(Tape::inference(), model, data, strategy, &mut eval_rng);
            let (val_acc, test_acc) = split_accuracy(&logits, data.labels, split);
            let mad = match (&adj_list, &penultimate) {
                (Some(al), Some(p)) if cfg.record_mad || wants_diag => {
                    Some(mean_average_distance(p, al))
                }
                _ => None,
            };
            if mad.is_some() {
                last_mad = mad;
            }
            if wants_diag {
                recorder.push(EpochDiagnostics {
                    epoch,
                    train_loss: mean_loss,
                    val_accuracy: val_acc,
                    output_grad_norm: first_grad_norm,
                    weight_norm_sq: model.store().total_l2_norm_sq(),
                    mad,
                    train_seconds,
                });
            }
            if should_eval && selection.observe(epoch, val_acc, test_acc, cfg) {
                break;
            }
        }
    }

    selection.result(epochs_run, recorder.into_entries(), last_mad)
}

/// Validation and test accuracy of `logits` over `split`. With no
/// validation rows, validation falls back to the train rows; with no test
/// rows, test falls back to validation.
pub(crate) fn split_accuracy(logits: &Matrix, labels: &[usize], split: &Split) -> (f64, f64) {
    let val_acc = if split.val.is_empty() {
        accuracy(logits, labels, &split.train)
    } else {
        accuracy(logits, labels, &split.val)
    };
    let test_acc = if split.test.is_empty() {
        val_acc
    } else {
        accuracy(logits, labels, &split.test)
    };
    (val_acc, test_acc)
}

/// Best-validation model selection with early stopping, shared by every
/// trainer: the reported test accuracy is the one at the best validation
/// epoch.
pub(crate) struct Selection {
    best_val: f64,
    best_test: f64,
    best_epoch: usize,
    since_best: usize,
}

impl Selection {
    pub(crate) fn new() -> Self {
        Self {
            best_val: f64::NEG_INFINITY,
            best_test: 0.0,
            best_epoch: 0,
            since_best: 0,
        }
    }

    /// Record one evaluation; `true` once patience has run out.
    pub(crate) fn observe(
        &mut self,
        epoch: usize,
        val_acc: f64,
        test_acc: f64,
        cfg: &TrainConfig,
    ) -> bool {
        // `>=` deliberately: on validation plateaus (tiny val sets plateau
        // hard) prefer the later, better-trained epoch. Patience, however,
        // only resets on strict improvement.
        let improved = val_acc > self.best_val;
        if val_acc >= self.best_val {
            self.best_val = val_acc;
            self.best_test = test_acc;
            self.best_epoch = epoch;
        }
        if improved {
            self.since_best = 0;
            return false;
        }
        self.since_best += cfg.eval_every;
        cfg.patience > 0 && self.since_best >= cfg.patience
    }

    pub(crate) fn result(
        self,
        epochs_run: usize,
        diagnostics: Vec<EpochDiagnostics>,
        final_mad: Option<f64>,
    ) -> TrainResult {
        TrainResult {
            test_accuracy: self.best_test,
            val_accuracy: self.best_val.max(0.0),
            best_epoch: self.best_epoch,
            epochs_run,
            diagnostics,
            final_mad,
        }
    }
}

/// The compiled program a run over `data` replays every epoch, recorded
/// once; `None` under [`TrainEngine::Eager`].
pub(crate) fn compile_for(
    model: &dyn Model,
    data: &TrainData<'_>,
    strategy: &Strategy,
    cfg: &TrainConfig,
) -> Option<TrainProgram> {
    let mut program = match cfg.engine {
        TrainEngine::Eager => return None,
        TrainEngine::Compiled => compile_probe(
            model,
            Arc::clone(&data.features),
            &data.degrees,
            &data.full_adj,
            strategy,
            cfg.fuse,
            data.segments,
        ),
    };
    program.enable_checkpointing(cfg.checkpoint_segments);
    Some(program)
}

/// One training step over `data`: replay `program` when there is one,
/// otherwise record a fresh eager tape. Returns the mean loss over the
/// heads, the first head's output-gradient norm and the parameter
/// gradients in store order.
///
/// Both executors consume `rng` identically — the epoch adjacency, then one
/// split for the forward — and produce identical losses, seeds and
/// parameter gradients; the engine-identity tests pin it. The full-batch,
/// sharded and neighbor-sampled trainers all step through here.
pub(crate) fn train_step(
    model: &dyn Model,
    data: &TrainData<'_>,
    split: &Split,
    program: Option<&mut TrainProgram>,
    strategy: &Strategy,
    fuse: bool,
    rng: &mut SplitRng,
) -> (f64, f64, Vec<Option<Matrix>>) {
    let adj = strategy.epoch_adjacency_edges(data.n, data.edges, &data.full_adj, true, rng);
    if let Some(program) = program {
        program.set_adjacency(adj);
        program.load_params(model.store().values());
        let mut fwd_rng = rng.split();
        let mut sampler = StrategySampler::new(strategy, &data.degrees)
            .with_segments(data.segments.map(Arc::as_ref));
        program.begin_epoch(&mut sampler, &mut fwd_rng);
        program.replay_forward();
        let heads = program.heads().to_vec();
        let logits: Vec<&Matrix> = heads.iter().map(|&h| program.value(h)).collect();
        let (mean_loss, first_grad_norm, seeds) =
            build_seeds(&logits, data.labels, split, model.consistency());
        let param_grads = program.backward(heads.iter().zip(seeds).map(|(&h, s)| (h, s)).collect());
        (mean_loss, first_grad_norm, param_grads)
    } else {
        let mut tape = Tape::new();
        let binding = model.store().bind(&mut tape);
        let adj_id = tape.register_adj(adj);
        let x = tape.constant_shared(Arc::clone(&data.features));
        let mut fwd_rng = rng.split();
        let mut ctx = ForwardCtx::new(adj_id, x, &data.degrees, strategy, true, &mut fwd_rng);
        ctx.fuse = fuse;
        ctx.segments = data.segments;
        let heads = model.forward_heads(&mut tape, &binding, &mut ctx);
        let logits: Vec<&Matrix> = heads.iter().map(|&h| tape.value(h)).collect();
        let (mean_loss, first_grad_norm, seeds) =
            build_seeds(&logits, data.labels, split, model.consistency());
        let mut grads =
            tape.backward_multi(heads.iter().zip(seeds).map(|(&h, s)| (h, s)).collect());
        let param_grads = binding.nodes().iter().map(|&n| grads.take(n)).collect();
        (mean_loss, first_grad_norm, param_grads)
    }
}

/// Apply one step's gradients: optional global-norm clipping, the
/// scheduled learning rate for `epoch`, one Adam step, then the gradient
/// buffers go back to the workspace for the next backward pass.
pub(crate) fn apply_update(
    model: &mut dyn Model,
    opt: &mut Adam,
    cfg: &TrainConfig,
    epoch: usize,
    mut param_grads: Vec<Option<Matrix>>,
) {
    if let Some(max_norm) = cfg.clip_norm {
        clip_global_norm(&mut param_grads, max_norm);
    }
    opt.set_lr(cfg.adam.lr * cfg.lr_schedule.factor(epoch));
    opt.step(model.store_mut(), &param_grads);
    for g in param_grads.into_iter().flatten() {
        workspace::give(g);
    }
}

/// Shared loss/seed construction for both executors: per-head softmax
/// cross-entropy on the train mask, mean loss across heads, the first
/// head's output-gradient norm (the Figure 2(b) diagnostic), `1/S` seed
/// scaling, and GRAND's consistency gradients when applicable. Also the
/// per-shard loss path of the mini-batch trainer, which is what keeps its
/// 1-shard run bit-identical to this one.
pub(crate) fn build_seeds(
    logits: &[&Matrix],
    labels: &[usize],
    split: &Split,
    consistency: Option<Consistency>,
) -> (f64, f64, Vec<Matrix>) {
    let s = logits.len();
    let mut seeds = Vec::with_capacity(s);
    let mut mean_loss = 0.0f64;
    let mut first_grad_norm = 0.0f64;
    let mut head_probs = Vec::with_capacity(s);
    for (hi, logit) in logits.iter().enumerate() {
        let out = softmax_cross_entropy(logit, labels, &split.train);
        mean_loss += out.loss / s as f64;
        if hi == 0 {
            first_grad_norm = skipnode_tensor::frobenius_norm(&out.grad);
        }
        let mut seed = out.grad;
        if s > 1 {
            seed.scale_in_place(1.0 / s as f32);
        }
        seeds.push(seed);
        head_probs.push(out.probs);
    }
    if let (Some(cons), true) = (consistency, s > 1) {
        add_consistency_seeds(&mut seeds, &head_probs, cons.lambda, cons.temperature);
    }
    (mean_loss, first_grad_norm, seeds)
}

/// Add GRAND's consistency gradients to the per-head seeds.
///
/// `L_con = (λ/S) Σ_s (1/n) Σ_i ‖p_s,i − p̄'_i‖²` where `p̄'` is the
/// temperature-sharpened average distribution (treated as constant). The
/// gradient w.r.t. each head's logits is the softmax VJP of
/// `2λ/(S·n) (p_s − p̄')`.
fn add_consistency_seeds(
    seeds: &mut [Matrix],
    head_probs: &[Matrix],
    lambda: f64,
    temperature: f64,
) {
    let s = head_probs.len();
    let (n, c) = head_probs[0].shape();
    // Average distribution.
    let mut mean = Matrix::zeros(n, c);
    for p in head_probs {
        mean.add_scaled(p, 1.0 / s as f32);
    }
    // Sharpen: p'_ij ∝ p_ij^{1/T}.
    let inv_t = (1.0 / temperature) as f32;
    let mut sharp = mean.map(|v| v.max(1e-12).powf(inv_t));
    for r in 0..n {
        let row = sharp.row_mut(r);
        let total: f32 = row.iter().sum();
        if total > 0.0 {
            for v in row.iter_mut() {
                *v /= total;
            }
        }
    }
    let coef = (2.0 * lambda / (s as f64 * n as f64)) as f32;
    for (seed, probs) in seeds.iter_mut().zip(head_probs) {
        for r in 0..n {
            let p_row = probs.row(r);
            // gp = coef * (p − p̄'); gz = p ⊙ (gp − (gp·p) 1)
            let mut dot = 0.0f64;
            let mut gp = vec![0.0f32; c];
            for j in 0..c {
                gp[j] = coef * (p_row[j] - sharp.get(r, j));
                dot += gp[j] as f64 * p_row[j] as f64;
            }
            let srow = seed.row_mut(r);
            for j in 0..c {
                srow[j] += p_row[j] * (gp[j] - dot as f32);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{Gcn, Grand};
    use skipnode_core::{Sampling, SkipNodeConfig};
    use skipnode_graph::{full_supervised_split, load, DatasetName, Scale};

    fn quick_cfg(epochs: usize) -> TrainConfig {
        TrainConfig {
            epochs,
            patience: 0,
            eval_every: 5,
            ..Default::default()
        }
    }

    #[test]
    fn shallow_gcn_learns_homophilic_labels() {
        // A dense homophilic partition graph: the regime where a 2-layer
        // GCN should comfortably recover planted communities.
        let mut rng = SplitRng::new(1);
        let g = skipnode_graph::partition_graph(
            &skipnode_graph::PartitionConfig {
                n: 400,
                m: 1600,
                classes: 4,
                homophily: 0.85,
                power: 0.2,
            },
            128,
            skipnode_graph::FeatureStyle::BinaryBagOfWords {
                active: 12,
                fidelity: 0.85,
                confusion: 0.15,
            },
            &mut rng,
        );
        let split = full_supervised_split(&g, &mut rng);
        let mut model = Gcn::new(g.feature_dim(), 32, g.num_classes(), 2, 0.3, &mut rng);
        let result = train_node_classifier(
            &mut model,
            &g,
            &split,
            &Strategy::None,
            &quick_cfg(60),
            &mut rng,
        );
        assert!(
            result.test_accuracy > 0.6,
            "accuracy {}",
            result.test_accuracy
        );
    }

    #[test]
    fn skipnode_trains_without_breaking_eval_determinism() {
        let g = load(DatasetName::Cornell, Scale::Bench, 7);
        let mut rng = SplitRng::new(2);
        let split = full_supervised_split(&g, &mut rng);
        let mut model = Gcn::new(g.feature_dim(), 16, g.num_classes(), 4, 0.2, &mut rng);
        let strategy = Strategy::SkipNode(SkipNodeConfig::new(0.5, Sampling::Uniform));
        let result =
            train_node_classifier(&mut model, &g, &split, &strategy, &quick_cfg(30), &mut rng);
        assert!(result.test_accuracy > 0.2, "{}", result.test_accuracy);
        assert!(result.epochs_run == 30);
    }

    #[test]
    fn diagnostics_are_recorded_when_enabled() {
        let g = load(DatasetName::Cornell, Scale::Bench, 7);
        let mut rng = SplitRng::new(3);
        let split = full_supervised_split(&g, &mut rng);
        let mut model = Gcn::new(g.feature_dim(), 16, g.num_classes(), 3, 0.0, &mut rng);
        let cfg = TrainConfig {
            epochs: 10,
            patience: 0,
            diagnostics_every: 2,
            record_mad: true,
            ..Default::default()
        };
        let result = train_node_classifier(&mut model, &g, &split, &Strategy::None, &cfg, &mut rng);
        assert_eq!(result.diagnostics.len(), 5);
        assert!(result.diagnostics.iter().all(|d| d.weight_norm_sq > 0.0));
        assert!(result.diagnostics.iter().all(|d| d.mad.is_some()));
    }

    #[test]
    fn grand_multi_head_training_runs() {
        let g = load(DatasetName::Cornell, Scale::Bench, 7);
        let mut rng = SplitRng::new(4);
        let split = full_supervised_split(&g, &mut rng);
        let mut model = Grand::new(
            g.feature_dim(),
            16,
            g.num_classes(),
            3,
            2,
            0.4,
            0.2,
            &mut rng,
        );
        let result = train_node_classifier(
            &mut model,
            &g,
            &split,
            &Strategy::None,
            &quick_cfg(30),
            &mut rng,
        );
        assert!(result.test_accuracy > 0.2, "{}", result.test_accuracy);
    }

    #[test]
    fn early_stopping_halts_before_epoch_budget() {
        let g = load(DatasetName::Cornell, Scale::Bench, 7);
        let mut rng = SplitRng::new(5);
        let split = full_supervised_split(&g, &mut rng);
        let mut model = Gcn::new(g.feature_dim(), 8, g.num_classes(), 2, 0.0, &mut rng);
        let cfg = TrainConfig {
            epochs: 500,
            patience: 5,
            eval_every: 1,
            ..Default::default()
        };
        let result = train_node_classifier(&mut model, &g, &split, &Strategy::None, &cfg, &mut rng);
        assert!(result.epochs_run < 500, "ran {}", result.epochs_run);
    }
}
