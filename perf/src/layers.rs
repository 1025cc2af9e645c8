//! The traced run's per-layer profile, shared by every workload.
//!
//! Each workload profiles every layer on its own graph and model: the
//! training stages through the traced mirror of its training program, the
//! kernels through direct GEMM/SpMM calls on its shapes, and the serving
//! stages through direct calls on an engine built from the mirror's
//! trained parameters. The serving workloads add their open-loop traffic
//! numbers as detail.

use crate::metrics::{Report, KERNEL_FAMILIES};
use crate::mirror::{self, Mirror};
use crate::probes;
use crate::serve;
use crate::stats::Samples;
use crate::trace::{Key, Trace};
use crate::train;
use skipnode_graph::Graph;
use skipnode_nn::{train_node_classifier, BackboneSpec, ModelCheckpoint, Strategy};
use skipnode_tensor::kstats;

/// Epochs the reference trainer and the traced mirror each run.
const TRACE_EPOCHS: usize = 16;

/// `graph.generate_ms`: mean graph-generation time over the set-up runs.
pub fn graph_metric(report: &mut Report, generate_s: Vec<f64>) {
    let s = Samples::new(generate_s);
    report.metric(
        "graph.generate_ms",
        s.mean().expect("set-up ran") * 1e3,
        s.len(),
    );
}

/// Profile the training program of `spec` under `strategy` on `graph`, then
/// the kernels and the serving engine on the same graph and model.
pub fn profile(
    graph: &Graph,
    spec: &BackboneSpec,
    strategy: &Strategy,
    seed: u64,
    report: &mut Report,
    trace: &mut Trace,
) -> Result<(), String> {
    // The trainer itself, untraced and uncounted, before and after the
    // mirror: the reference the mirror must reproduce bit for bit, and the
    // baseline for tracing overhead with drift in machine speed averaged out.
    let reference = || {
        kstats::set_enabled(false);
        let (split, mut model, mut rng) = train::init(graph, spec, seed);
        let cfg = train::config(TRACE_EPOCHS);
        let result = train_node_classifier(model.as_mut(), graph, &split, strategy, &cfg, &mut rng);
        let params: Vec<_> = model.store().values().cloned().collect();
        (result, params)
    };
    let (before, before_params) = reference();

    kstats::set_enabled(true);
    let (split, mut model, mut rng) = train::init(graph, spec, seed);
    let run = trace.begin("mirror", Key::Run);
    let mirror = mirror::run(
        model.as_mut(),
        graph,
        &split,
        strategy,
        TRACE_EPOCHS,
        &mut rng,
        trace,
    );
    trace.end(run);
    let mirror = mirror?;
    mirror.matches(&before, &before_params)?;
    let (after, _) = reference();
    // Counters stay on for the serving replay's per-query kernel work.
    kstats::set_enabled(true);
    report.attempted += 3 * TRACE_EPOCHS as u64;

    let ref_steps: Vec<f64> = [before, after]
        .iter()
        .flat_map(|r| &r.diagnostics[train::WARMUP_EPOCHS..])
        .map(|d| d.train_seconds)
        .collect();
    epoch_metrics(&mirror, &ref_steps, trace, report);

    let peak = probes::fma_gflops();
    let copy = probes::copy_gbps();
    report.metric("machine.fma_gflops", peak, 5);
    report.metric("machine.copy_gbps", copy, 5);
    let k = probes::kernel_rates(graph, spec.hidden, seed);
    for (name, value, roof) in [
        ("tensor.gemm_in_gflops", k.gemm_in, peak),
        ("tensor.gemm_hidden_gflops", k.gemm_hidden, peak),
        ("tensor.gemm_at_b_gflops", k.gemm_at_b, peak),
        ("sparse.spmm_gbps", k.spmm, copy),
        ("sparse.spmm_subset_gbps", k.spmm_subset, copy),
    ] {
        report.metric(name, value, 1);
        report.metric(&format!("{name}.roofline"), value / roof, 1);
    }

    let ckpt = ModelCheckpoint::capture(spec, model.as_ref());
    let e = serve::probe_engine(&ckpt, graph, seed)?;
    report.metric("serve.from_checkpoint_ms", e.from_checkpoint_ms, e.builds);
    for (batch, ms, reps) in e.batch_ms {
        report.metric(&format!("serve.batch_ms.b{batch}"), ms, reps);
    }
    report.metric("serve.apply_update_us", e.apply_update_us, e.updates);
    Ok(())
}

/// Per-epoch means over the mirror's measured epochs (the first
/// `WARMUP_EPOCHS` are left out), from its spans and kernel counters.
fn epoch_metrics(mirror: &Mirror, ref_steps: &[f64], trace: &Trace, report: &mut Report) {
    let spans = trace.spans();
    let self_ns = trace.self_times_ns();
    let measured = |key: Key| matches!(key, Key::Epoch(e) if e >= train::WARMUP_EPOCHS);
    let epochs = mirror.losses.len() - train::WARMUP_EPOCHS;
    let per_epoch_ms = |ns: u64| ns as f64 / 1e6 / epochs as f64;

    let total = |name: &str, own: bool| -> u64 {
        spans
            .iter()
            .zip(&self_ns)
            .filter(|(s, _)| s.name == name && measured(s.key))
            .map(|(s, &own_ns)| if own { own_ns } else { s.duration_ns() })
            .sum()
    };
    for (metric, span) in [
        ("autograd.begin_epoch_ms", "autograd.begin_epoch"),
        ("autograd.forward_ms", "autograd.forward"),
        ("autograd.loss_ms", "autograd.loss"),
        ("autograd.backward_ms", "autograd.backward"),
        ("nn.adam_ms", "nn.adam"),
        ("nn.evaluate_ms", "nn.evaluate"),
    ] {
        report.metric(metric, per_epoch_ms(total(span, true)), epochs);
    }
    let begin_all = total("autograd.begin_epoch", false);
    report.metric(
        "core.skip_mask_share",
        total("core.skip_mask", false) as f64 / begin_all.max(1) as f64,
        epochs,
    );
    report.metric(
        "core.active_row_ratio",
        if mirror.mask_rows == 0 {
            1.0
        } else {
            mirror.active_rows as f64 / mirror.mask_rows as f64
        },
        mirror.losses.len(),
    );
    let compile = spans
        .iter()
        .find(|s| s.name == "nn.compile")
        .expect("the mirror compiles once");
    report.metric("nn.compile_ms", compile.duration_ns() as f64 / 1e6, 1);

    // Coverage: the share of each epoch that its top-level spans account for.
    let (covered, wall) =
        mirror.epoch_spans[train::WARMUP_EPOCHS..]
            .iter()
            .fold((0u64, 0u64), |(c, w), &id| {
                let d = spans[id].duration_ns();
                (c + d - self_ns[id], w + d)
            });
    report.metric("trace.coverage", covered as f64 / wall as f64, epochs);
    let traced = Samples::new(mirror.step_seconds[train::WARMUP_EPOCHS..].to_vec());
    let untraced = Samples::new(ref_steps.to_vec());
    report.metric(
        "trace.overhead",
        traced.mean().expect("measured epochs") / untraced.mean().expect("measured epochs"),
        epochs,
    );

    let names = kstats::snapshot().map(|s| s.name);
    for (prefix, family) in KERNEL_FAMILIES {
        let i = names
            .iter()
            .position(|&n| n == family)
            .unwrap_or_else(|| panic!("kstats has no {family} family"));
        let (calls, work) = mirror.kernels[train::WARMUP_EPOCHS..]
            .iter()
            .fold((0u64, 0u64), |(c, w), k| (c + k[i].0, w + k[i].1));
        report.metric(
            &format!("{prefix}.calls"),
            calls as f64 / epochs as f64,
            epochs,
        );
        report.metric(
            &format!("{prefix}.work"),
            work as f64 / epochs as f64,
            epochs,
        );
    }
    report.metric(
        "tensor.workspace_peak_mb",
        mirror.workspace_peak_bytes as f64 / 1e6,
        mirror.losses.len(),
    );
}
