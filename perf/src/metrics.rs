//! The metric catalogues and the report a run fills in.
//!
//! A training workload reports every end-to-end metric (untraced run) or
//! every per-layer metric (traced run), so those two catalogues are the
//! whole output contract; `BENCHMARK.json` lists the same names and units,
//! which a unit test checks. The serving workloads, which run by hand only,
//! report their own end-to-end catalogue. Anything else a run measures is
//! reported as detail: printed and written to `--out`, but not part of the
//! contract.

use crate::json::{Json, Object};

/// A metric name and its unit.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// End-to-end metrics of the training workloads, measured with tracing off.
///
/// The step time is reported at its tail only. On a shared host a core
/// switches between a fast and a slow state (steps about 30% apart) every
/// few seconds, and sometimes stays slow for minutes: the median step of a
/// run, like any mean over it, lands in either state depending on the mix,
/// while the slow state turns up in nearly every run, so p90 reads it
/// steadily.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s"),
    m("peak_rss_mb", "MB"),
    m("train_step_ms_p90", "ms"),
];

/// End-to-end metrics of the serving workloads, measured with tracing off.
pub const SERVING_END_TO_END: &[Metric] = &[
    m("setup_s", "s"),
    m("peak_rss_mb", "MB"),
    m("latency_ms_p50", "ms"),
    m("latency_ms_tail", "ms"),
    m("throughput_per_s", "1/s"),
];

/// Kernel families whose per-epoch calls and work the traced run reports,
/// as (metric prefix, `kstats` family name).
pub const KERNEL_FAMILIES: [(&str, &str); 8] = [
    ("tensor.gemm", "gemm"),
    ("tensor.gemm_at_b", "gemm_at_b"),
    ("tensor.gemm_a_bt", "gemm_a_bt"),
    ("tensor.elemwise", "elemwise"),
    ("tensor.adam", "adam"),
    ("sparse.spmm", "spmm"),
    ("sparse.spmm_subset", "spmm_subset"),
    ("sparse.spmm_compact", "spmm_compact"),
];

/// Per-layer metrics, measured by the traced run.
pub const PER_LAYER: &[Metric] = &[
    m("graph.generate_ms", "ms"),
    m("nn.compile_ms", "ms"),
    m("serve.from_checkpoint_ms", "ms"),
    m("core.skip_mask_share", "fraction"),
    m("core.active_row_ratio", "fraction"),
    m("autograd.begin_epoch_ms", "ms"),
    m("autograd.forward_ms", "ms"),
    m("autograd.loss_ms", "ms"),
    m("autograd.backward_ms", "ms"),
    m("nn.adam_ms", "ms"),
    m("nn.evaluate_ms", "ms"),
    m("tensor.gemm.calls", "count"),
    m("tensor.gemm.work", "count"),
    m("tensor.gemm_at_b.calls", "count"),
    m("tensor.gemm_at_b.work", "count"),
    m("tensor.gemm_a_bt.calls", "count"),
    m("tensor.gemm_a_bt.work", "count"),
    m("tensor.elemwise.calls", "count"),
    m("tensor.elemwise.work", "count"),
    m("tensor.adam.calls", "count"),
    m("tensor.adam.work", "count"),
    m("sparse.spmm.calls", "count"),
    m("sparse.spmm.work", "count"),
    m("sparse.spmm_subset.calls", "count"),
    m("sparse.spmm_subset.work", "count"),
    m("sparse.spmm_compact.calls", "count"),
    m("sparse.spmm_compact.work", "count"),
    m("tensor.gemm_in_gflops", "GFLOP/s"),
    m("tensor.gemm_in_gflops.roofline", "fraction"),
    m("tensor.gemm_hidden_gflops", "GFLOP/s"),
    m("tensor.gemm_hidden_gflops.roofline", "fraction"),
    m("tensor.gemm_at_b_gflops", "GFLOP/s"),
    m("tensor.gemm_at_b_gflops.roofline", "fraction"),
    m("sparse.spmm_gbps", "GB/s"),
    m("sparse.spmm_gbps.roofline", "fraction"),
    m("sparse.spmm_subset_gbps", "GB/s"),
    m("sparse.spmm_subset_gbps.roofline", "fraction"),
    m("machine.fma_gflops", "GFLOP/s"),
    m("machine.copy_gbps", "GB/s"),
    m("serve.batch_ms.b1", "ms"),
    m("serve.batch_ms.b16", "ms"),
    m("serve.batch_ms.b64", "ms"),
    m("serve.apply_update_us", "us"),
    m("tensor.workspace_peak_mb", "MB"),
    m("trace.coverage", "fraction"),
    m("trace.overhead", "ratio"),
];

/// One measured value.
pub struct Entry {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples the value summarizes.
    pub samples: usize,
}

impl Entry {
    fn to_json(&self) -> Json {
        Json::Obj(
            Object::new()
                .with("value", Json::num(self.value))
                .with("unit", Json::str(self.unit))
                .with("samples", Json::num(self.samples as f64)),
        )
    }
}

/// Everything one run measured.
pub struct Report {
    catalogue: &'static [Metric],
    metrics: Vec<Entry>,
    detail: Vec<Entry>,
    /// Operations attempted (epochs or queries) and how many failed.
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    pub fn new(catalogue: &'static [Metric]) -> Self {
        Self {
            catalogue,
            metrics: Vec::new(),
            detail: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Record a catalogue metric.
    ///
    /// # Panics
    /// Panics on a name outside this run's catalogue, a repeated name, or a
    /// non-finite value — each a bug in the benchmark.
    pub fn metric(&mut self, name: &str, value: f64, samples: usize) {
        let unit = self
            .catalogue
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{name} is not in this run's metric catalogue"))
            .unit;
        assert!(
            self.metrics.iter().all(|e| e.name != name),
            "metric {name} recorded twice"
        );
        assert!(value.is_finite(), "metric {name} is {value}");
        self.metrics.push(Entry {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    /// Record a value outside the catalogue.
    pub fn detail(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: usize,
    ) {
        let name = name.into();
        assert!(value.is_finite(), "detail {name} is {value}");
        self.detail.push(Entry {
            name,
            value,
            unit,
            samples,
        });
    }

    /// Catalogue names this run has not recorded.
    pub fn missing(&self) -> Vec<&'static str> {
        self.catalogue
            .iter()
            .filter(|m| self.metrics.iter().all(|e| e.name != m.name))
            .map(|m| m.name)
            .collect()
    }

    /// Human-readable lines: catalogue metrics, then detail.
    pub fn print(&self) {
        for (title, entries) in [("metrics", &self.metrics), ("detail", &self.detail)] {
            if entries.is_empty() {
                continue;
            }
            println!("{title}:");
            for e in entries.iter() {
                println!(
                    "  {:<40} {:>16.6} {:<9} n={}",
                    e.name, e.value, e.unit, e.samples
                );
            }
        }
    }

    /// The result object: catalogue metrics in catalogue order.
    pub fn result(&self, correct: bool) -> Json {
        let mut metrics = Object::new();
        if correct {
            for m in self.catalogue {
                if let Some(e) = self.metrics.iter().find(|e| e.name == m.name) {
                    metrics.insert(
                        m.name,
                        Json::Obj(
                            Object::new()
                                .with("value", Json::num(e.value))
                                .with("unit", Json::str(e.unit)),
                        ),
                    );
                }
            }
        }
        Json::Obj(
            Object::new()
                .with("correct", Json::Bool(correct))
                .with("attempted", Json::num(self.attempted.max(1) as f64))
                .with("failed", Json::num(self.failed as f64))
                .with("metrics", Json::Obj(metrics)),
        )
    }

    /// Every entry with its sample count, for the `--out` report.
    pub fn entries_json(&self) -> (Json, Json) {
        let collect = |entries: &[Entry]| {
            let mut o = Object::new();
            for e in entries {
                o.insert(&e.name, e.to_json());
            }
            Json::Obj(o)
        };
        (collect(&self.metrics), collect(&self.detail))
    }
}
