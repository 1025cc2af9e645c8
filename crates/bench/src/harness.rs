//! Experiment plumbing: CLI args, factories, and the split-averaged runner
//! shared by the table, figure, and ablation binaries.

use crate::executor::Executor;
use skipnode_core::{Sampling, SkipNodeConfig};
use skipnode_graph::{full_supervised_split, semi_supervised_split, Graph, Scale, Split};
use skipnode_nn::models::{BuildError, Model};
use skipnode_nn::{train_node_classifier, Strategy, TrainConfig};
use skipnode_tensor::SplitRng;

/// Common CLI arguments for experiment binaries.
///
/// Flags: `--seed N`, `--scale paper|bench`, `--epochs N`, `--splits N`,
/// `--quick` (shrinks grids for smoke runs).
#[derive(Debug, Clone)]
pub struct ExpArgs {
    /// Master seed.
    pub seed: u64,
    /// Dataset scale.
    pub scale: Scale,
    /// Epoch budget per run.
    pub epochs: usize,
    /// Number of repeated splits per configuration.
    pub splits: usize,
    /// Smoke-test mode: binaries shrink their grids.
    pub quick: bool,
    /// Optional depth override (binaries with a fixed depth honor it).
    pub depth: Option<usize>,
    /// Optional backbone slice (comma-separated names).
    pub backbones: Option<Vec<String>>,
    /// Optional dataset slice (comma-separated names).
    pub datasets: Option<Vec<String>>,
    /// Optional depth-grid slice (comma-separated depths).
    pub depths: Option<Vec<usize>>,
}

impl ExpArgs {
    /// Parse from `std::env::args`, with per-binary defaults.
    ///
    /// # Panics
    /// Panics (with a usage message) on malformed flags.
    pub fn parse(default_epochs: usize, default_splits: usize) -> Self {
        let mut out = Self {
            seed: 7,
            scale: Scale::Bench,
            epochs: default_epochs,
            splits: default_splits,
            quick: false,
            depth: None,
            backbones: None,
            datasets: None,
            depths: None,
        };
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < args.len() {
            let take = |i: &mut usize| -> &str {
                *i += 1;
                args.get(*i).unwrap_or_else(|| {
                    panic!("flag {} expects a value", args[*i - 1]);
                })
            };
            match args[i].as_str() {
                "--seed" => out.seed = take(&mut i).parse().expect("--seed expects u64"),
                "--scale" => {
                    out.scale = match take(&mut i) {
                        "paper" => Scale::Paper,
                        "bench" => Scale::Bench,
                        other => panic!("unknown scale {other} (paper|bench)"),
                    }
                }
                "--epochs" => out.epochs = take(&mut i).parse().expect("--epochs expects usize"),
                "--splits" => out.splits = take(&mut i).parse().expect("--splits expects usize"),
                "--quick" => out.quick = true,
                "--depth" => {
                    out.depth = Some(take(&mut i).parse().expect("--depth expects usize"))
                }
                "--backbones" => {
                    out.backbones =
                        Some(take(&mut i).split(',').map(|s| s.to_string()).collect())
                }
                "--datasets" => {
                    out.datasets =
                        Some(take(&mut i).split(',').map(|s| s.to_string()).collect())
                }
                "--depths" => {
                    out.depths = Some(
                        take(&mut i)
                            .split(',')
                            .map(|d| d.parse().expect("--depths expects usize list"))
                            .collect(),
                    )
                }
                other => panic!(
                    "unknown flag {other}; supported: --seed --scale --epochs --splits --quick --depth --depths --backbones --datasets"
                ),
            }
            i += 1;
        }
        if out.quick {
            out.epochs = out.epochs.min(30);
            out.splits = out.splits.min(2);
        }
        out
    }

    /// Apply the `--backbones` slice to a default backbone list.
    pub fn slice_backbones(&self, default: Vec<&'static str>) -> Vec<String> {
        match &self.backbones {
            Some(list) => list.clone(),
            None => default.into_iter().map(|s| s.to_string()).collect(),
        }
    }

    /// Apply the `--datasets` slice to a default dataset list.
    pub fn slice_datasets(
        &self,
        default: Vec<skipnode_graph::DatasetName>,
    ) -> Vec<skipnode_graph::DatasetName> {
        match &self.datasets {
            Some(list) => list
                .iter()
                .map(|s| {
                    skipnode_graph::DatasetName::parse(s)
                        .unwrap_or_else(|| panic!("unknown dataset {s}"))
                })
                .collect(),
            None => default,
        }
    }

    /// Apply the `--depths` slice to a default depth grid.
    pub fn slice_depths(&self, default: Vec<usize>) -> Vec<usize> {
        self.depths.clone().unwrap_or(default)
    }

    /// Training config derived from these args. Evaluation every 5 epochs
    /// keeps single-core wall-clock sane; the final epoch always evaluates.
    pub fn train_config(&self) -> TrainConfig {
        TrainConfig {
            epochs: self.epochs,
            patience: (self.epochs / 4).max(20),
            eval_every: 5,
            ..Default::default()
        }
    }
}

/// Build a backbone by table name (delegates to
/// [`skipnode_nn::models::build_by_name`]). Unknown names are an `Err`,
/// so binaries can report them instead of aborting — see [`require`].
pub fn build_model(
    name: &str,
    in_dim: usize,
    hidden: usize,
    out_dim: usize,
    depth: usize,
    dropout: f64,
    rng: &mut SplitRng,
) -> Result<Box<dyn Model>, BuildError> {
    skipnode_nn::models::build_by_name(name, in_dim, hidden, out_dim, depth, dropout, rng)
}

/// Unwrap a factory result, or print the error and exit with status 2 —
/// the graceful-reporting path bench binaries take for unknown
/// backbone/strategy names from the CLI.
pub fn require<T>(result: Result<T, BuildError>) -> T {
    result.unwrap_or_else(|err| {
        eprintln!("error: {err}");
        std::process::exit(2);
    })
}

/// The depth-tuned SkipNode sampling rate, mirroring the paper's per-cell
/// grid search over ρ ∈ {0.05, …, 0.9}: deeper models need more skipping
/// (cf. Figure 5 — at L = 32 the best ρ is 0.8–0.9).
pub fn tuned_rho(depth: usize) -> f64 {
    match depth {
        0..=9 => 0.5,
        10..=23 => 0.8,
        _ => 0.9,
    }
}

/// Build a strategy by table name (`-`, `dropedge`, `dropnode`,
/// `pairnorm`, `skipnode-u`, `skipnode-b`) with the given rate. Unknown
/// names are an `Err`, not a panic — see [`require`].
pub fn strategy_by_name(name: &str, rate: f64) -> Result<Strategy, BuildError> {
    Ok(match name {
        "-" | "none" => Strategy::None,
        "dropedge" => Strategy::DropEdge { rate },
        "dropnode" => Strategy::DropNode { rate },
        "pairnorm" => Strategy::PairNorm { scale: 1.0 },
        "skipnode-u" => Strategy::SkipNode(SkipNodeConfig::new(rate, Sampling::Uniform)),
        "skipnode-b" => Strategy::SkipNode(SkipNodeConfig::new(rate, Sampling::Biased)),
        other => return Err(BuildError::UnknownStrategy(other.to_string())),
    })
}

/// Outcome of a repeated-split classification experiment.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Mean test accuracy (percent).
    pub mean: f64,
    /// Standard deviation over splits (percent).
    pub std: f64,
    /// Mean MAD at the final evaluation, when recorded.
    pub mad: Option<f64>,
}

/// Split protocol for [`run_classification`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// 20 per class train / 500 val / 1000 test (Planetoid public-style).
    SemiSupervised,
    /// 60/20/20 random.
    FullSupervised,
}

/// Train `splits` independent (split, init) repetitions of one
/// configuration and aggregate test accuracy.
///
/// Repetitions run through the run-level [`Executor`]
/// (`SKIPNODE_RUN_PARALLEL`); each repetition seeds its own RNG from its
/// index, so parallel results are byte-identical to serial.
#[allow(clippy::too_many_arguments)]
pub fn run_classification(
    graph: &Graph,
    backbone: &str,
    depth: usize,
    strategy: &Strategy,
    protocol: Protocol,
    cfg: &TrainConfig,
    splits: usize,
    hidden: usize,
    dropout: f64,
    seed: u64,
) -> RunOutcome {
    let reps = Executor::from_env().run(splits, |rep| {
        let mut rng = SplitRng::new(seed ^ (rep as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let split: Split = match protocol {
            Protocol::SemiSupervised => semi_supervised_split(graph, &mut rng),
            Protocol::FullSupervised => full_supervised_split(graph, &mut rng),
        };
        let mut model = require(build_model(
            backbone,
            graph.feature_dim(),
            hidden,
            graph.num_classes(),
            depth,
            dropout,
            &mut rng,
        ));
        let result = train_node_classifier(model.as_mut(), graph, &split, strategy, cfg, &mut rng);
        (result.test_accuracy * 100.0, result.final_mad)
    });
    let accs: Vec<f64> = reps.iter().map(|&(acc, _)| acc).collect();
    let mads: Vec<f64> = reps.iter().filter_map(|&(_, mad)| mad).collect();
    let (mean, std) = mean_std(&accs);
    RunOutcome {
        mean,
        std,
        mad: (!mads.is_empty()).then(|| mads.iter().sum::<f64>() / mads.len() as f64),
    }
}

/// Mean and (population) standard deviation.
pub fn mean_std(xs: &[f64]) -> (f64, f64) {
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
    (mean, var.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_std_of_constants() {
        let (m, s) = mean_std(&[2.0, 2.0, 2.0]);
        assert_eq!(m, 2.0);
        assert_eq!(s, 0.0);
    }

    #[test]
    fn mean_std_known_values() {
        let (m, s) = mean_std(&[1.0, 3.0]);
        assert_eq!(m, 2.0);
        assert_eq!(s, 1.0);
    }

    #[test]
    fn tuned_rho_grows_with_depth() {
        assert_eq!(tuned_rho(4), 0.5);
        assert_eq!(tuned_rho(16), 0.8);
        assert_eq!(tuned_rho(32), 0.9);
        assert!(tuned_rho(64) >= tuned_rho(8));
    }

    #[test]
    fn factories_cover_all_backbones() {
        let mut rng = SplitRng::new(1);
        for name in [
            "gcn",
            "resgcn",
            "jknet",
            "inceptgcn",
            "gcnii",
            "appnp",
            "gprgnn",
            "grand",
            "sgc",
        ] {
            let m = build_model(name, 8, 4, 3, 3, 0.1, &mut rng).expect("known backbone");
            assert!(!m.store().is_empty(), "{name} has no params");
        }
    }

    #[test]
    fn strategy_factory_round_trip() {
        assert_eq!(strategy_by_name("-", 0.0), Ok(Strategy::None));
        assert_eq!(
            strategy_by_name("dropedge", 0.3),
            Ok(Strategy::DropEdge { rate: 0.3 })
        );
        assert!(matches!(
            strategy_by_name("skipnode-b", 0.5),
            Ok(Strategy::SkipNode(_))
        ));
    }

    #[test]
    fn unknown_names_are_errors_not_panics() {
        let mut rng = SplitRng::new(1);
        let err = build_model("nope", 8, 4, 3, 3, 0.1, &mut rng)
            .err()
            .expect("unknown backbone must be rejected");
        assert_eq!(err, BuildError::UnknownBackbone("nope".to_string()));
        assert!(err.to_string().contains("unknown backbone"));
        let err = strategy_by_name("nope", 0.5).expect_err("unknown strategy must be rejected");
        assert_eq!(err, BuildError::UnknownStrategy("nope".to_string()));
    }
}
