//! Training workloads: repeated `train_node_classifier` calls on the
//! compiled, fused engine.

use crate::layers;
use crate::metrics::Report;
use crate::stats::Samples;
use crate::trace::Trace;
use crate::Args;
use skipnode_core::{Sampling, SkipNodeConfig};
use skipnode_graph::{load, semi_supervised_split, DatasetName, Graph, Scale, Split};
use skipnode_nn::{train_node_classifier, BackboneSpec, Model, Strategy, TrainConfig};
use skipnode_tensor::SplitRng;
use std::time::Instant;

pub const HIDDEN: usize = 64;
pub const DROPOUT: f64 = 0.5;
/// Epochs per `train_node_classifier` call. Every call in a run starts
/// from the same seed, so calls repeat identical work and must return
/// identical losses.
const CALL_EPOCHS: usize = 12;
/// Leading epochs of each call left out of the step-time samples.
pub const WARMUP_EPOCHS: usize = 1;
/// Step samples a run collects at least, whatever `--seconds` says: p90
/// needs ten samples beyond it.
const MIN_STEPS: usize = 100;
/// Times the set-up is repeated; the median has ten samples beyond it.
pub const SETUP_REPS: usize = 21;

/// One training workload's inputs.
pub struct Case {
    dataset: DatasetName,
    depth: usize,
    strategy: Strategy,
}

/// `train-skipnode-deep`: the paper's setting, a 32-layer GCN on Cora with
/// SkipNode-U at the rate tuned for depth 32 (ρ = 0.9).
pub fn skipnode_deep() -> Case {
    Case {
        dataset: DatasetName::Cora,
        depth: 32,
        strategy: Strategy::SkipNode(SkipNodeConfig::new(0.9, Sampling::Uniform)),
    }
}

/// `train-vanilla-wide`: an 8-layer plain GCN on the 12k-node ogbn-arxiv
/// substitute; every layer runs the full SpMM and full-width GEMMs.
pub fn vanilla_wide() -> Case {
    Case {
        dataset: DatasetName::OgbnArxiv,
        depth: 8,
        strategy: Strategy::None,
    }
}

/// The GCN every workload trains or serves.
pub fn gcn_spec(graph: &Graph, depth: usize) -> BackboneSpec {
    BackboneSpec::new(
        "gcn",
        graph.feature_dim(),
        HIDDEN,
        graph.num_classes(),
        depth,
        DROPOUT,
    )
}

/// The trainer configuration of every run: the compiled, fused engine with
/// evaluation and diagnostics every epoch and no early stopping.
pub fn config(epochs: usize) -> TrainConfig {
    TrainConfig {
        epochs,
        patience: 0,
        eval_every: 1,
        diagnostics_every: 1,
        ..Default::default()
    }
}

/// Split, fresh model, and the RNG state training continues from.
pub fn init(graph: &Graph, spec: &BackboneSpec, seed: u64) -> (Split, Box<dyn Model>, SplitRng) {
    let mut rng = SplitRng::new(seed);
    let split = semi_supervised_split(graph, &mut rng);
    let model = spec.build(&mut rng).expect("gcn is a known backbone");
    (split, model, rng)
}

/// Run the set-up `SETUP_REPS` times: generate the graph, normalize its
/// adjacency, split, and initialize the model. Returns the last graph, the
/// set-up seconds and the graph-generation seconds of every repetition.
pub fn setup(case: &Case, seed: u64) -> (Graph, Vec<f64>, Vec<f64>) {
    let mut total = Vec::with_capacity(SETUP_REPS);
    let mut generate = Vec::with_capacity(SETUP_REPS);
    let mut graph = None;
    for _ in 0..SETUP_REPS {
        // The previous repetition's graph goes first, so the peak holds one.
        drop(graph.take());
        let t = Instant::now();
        let g = load(case.dataset, Scale::Bench, seed);
        generate.push(t.elapsed().as_secs_f64());
        g.gcn_adjacency();
        std::hint::black_box(init(&g, &gcn_spec(&g, case.depth), seed));
        total.push(t.elapsed().as_secs_f64());
        graph = Some(g);
    }
    (graph.expect("SETUP_REPS > 0"), total, generate)
}

/// Untraced run: end-to-end metrics.
pub fn run(case: &Case, args: &Args, report: &mut Report) -> Result<(), String> {
    let (graph, setup_s, _) = setup(case, args.seed);
    let spec = gcn_spec(&graph, case.depth);
    let setup_s = Samples::new(setup_s);
    report.metric(
        "setup_s",
        setup_s
            .percentile(50.0)
            .expect("SETUP_REPS leaves ten beyond"),
        setup_s.len(),
    );

    let cfg = config(CALL_EPOCHS);
    let mut steps_ms = Vec::new();
    let (mut epochs, mut calls, mut call_seconds) = (0usize, 0usize, 0.0f64);
    let mut first: Option<(Vec<u64>, f64)> = None;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < args.seconds || steps_ms.len() < MIN_STEPS {
        let (split, mut model, mut rng) = init(&graph, &spec, args.seed);
        let t = Instant::now();
        let result = train_node_classifier(
            model.as_mut(),
            &graph,
            &split,
            &case.strategy,
            &cfg,
            &mut rng,
        );
        call_seconds += t.elapsed().as_secs_f64();
        epochs += result.epochs_run;
        calls += 1;
        report.attempted += result.epochs_run as u64;

        let losses: Vec<u64> = result
            .diagnostics
            .iter()
            .map(|d| d.train_loss.to_bits())
            .collect();
        if let Some(bad) = result
            .diagnostics
            .iter()
            .find(|d| !d.train_loss.is_finite())
        {
            report.failed += 1;
            return Err(format!("epoch {} has loss {}", bad.epoch, bad.train_loss));
        }
        match &first {
            None => first = Some((losses, result.test_accuracy)),
            Some((l, acc)) if *l == losses && *acc == result.test_accuracy => {}
            Some(_) => {
                return Err(format!(
                    "call {calls} diverged from call 1 at the same seed"
                ))
            }
        }
        steps_ms.extend(
            result.diagnostics[WARMUP_EPOCHS..]
                .iter()
                .map(|d| d.train_seconds * 1e3),
        );
    }

    report.metric("peak_rss_mb", crate::peak_rss_mb()?, 1);
    let steps = Samples::new(steps_ms);
    let p90 = steps.percentile(90.0).ok_or("too few steps for p90")?;
    report.metric("train_step_ms_p90", p90, steps.len());
    let p50 = steps.percentile(50.0).ok_or("too few steps for p50")?;
    report.detail("train_step_ms_p50", p50, "ms", steps.len());
    report.detail(
        "train_epochs_per_s",
        epochs as f64 / call_seconds,
        "1/s",
        epochs,
    );
    let (_, accuracy) = first.expect("at least one call ran");
    report.detail("test_accuracy", accuracy, "fraction", calls);
    report.detail("calls", calls as f64, "count", calls);
    Ok(())
}

/// Traced run: per-layer metrics of this workload's training program.
pub fn run_traced(
    case: &Case,
    args: &Args,
    report: &mut Report,
    trace: &mut Trace,
) -> Result<(), String> {
    let (graph, _, generate) = setup(case, args.seed);
    layers::graph_metric(report, generate);
    let spec = gcn_spec(&graph, case.depth);
    layers::profile(&graph, &spec, &case.strategy, args.seed, report, trace)
}
