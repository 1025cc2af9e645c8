#![warn(missing_docs)]

//! GNN layers, backbones, plug-and-play strategies, optimization, and
//! training harnesses for the SkipNode reproduction.
//!
//! The crate provides every backbone the paper evaluates — GCN, ResGCN,
//! JKNet, InceptGCN, GCNII, APPNP, GPRGNN, and GRAND — behind one [`Model`]
//! trait, and every plug-and-play strategy — DropEdge, DropNode, PairNorm,
//! and SkipNode — behind one [`Strategy`] enum, so any (backbone, strategy)
//! pair from Tables 3–8 is a two-liner:
//!
//! ```no_run
//! use skipnode_graph::{load, semi_supervised_split, DatasetName, Scale};
//! use skipnode_nn::{models::Gcn, train_node_classifier, Strategy, TrainConfig};
//! use skipnode_core::{Sampling, SkipNodeConfig};
//! use skipnode_tensor::SplitRng;
//!
//! let mut rng = SplitRng::new(7);
//! let graph = load(DatasetName::Cora, Scale::Bench, 7);
//! let split = semi_supervised_split(&graph, &mut rng);
//! let mut model = Gcn::new(graph.feature_dim(), 64, graph.num_classes(), 8, 0.5, &mut rng);
//! let strategy = Strategy::SkipNode(SkipNodeConfig::new(0.5, Sampling::Uniform));
//! let result = train_node_classifier(
//!     &mut model, &graph, &split, &strategy, &TrainConfig::default(), &mut rng);
//! println!("test accuracy: {:.3}", result.test_accuracy);
//! ```

mod checkpoint;
mod context;
mod diagnostics;
mod energy;
pub mod engine;
mod linkpred;
mod metrics;
mod minibatch;
pub mod models;
mod optim;
mod param;
pub mod plan;
mod schedule;
mod trainer;

pub use checkpoint::{
    load_checkpoint, read_checkpoint, save_checkpoint, write_checkpoint, ModelCheckpoint,
};
pub use context::{ForwardCtx, Strategy};
pub use diagnostics::{DiagnosticsRecorder, EpochDiagnostics};
pub use energy::dirichlet_energy;
pub use engine::{
    compile_train_program, compile_train_program_packed, EngineError, StrategySampler,
};
pub use linkpred::{train_link_predictor, LinkPredConfig, LinkPredResult};
pub use metrics::{accuracy, hits_at_k, mean_average_distance};
pub use minibatch::{train_node_classifier_minibatch, BatchScheme, MiniBatchConfig};
pub use models::{BackboneSpec, BuildError, Model};
pub use optim::{Adam, AdamConfig};
pub use param::{Binding, LayerInit, ParamId, ParamStore};
pub use plan::{LayerPlan, PlanBuilder, PlanExecutor, PlanOp, Reg};
pub use schedule::{clip_global_norm, LrSchedule};
pub use trainer::{
    evaluate, evaluate_packed, evaluate_quantized, record_evaluation, train_graph_classifier,
    train_node_classifier, train_packed_node_classifier, TrainConfig, TrainEngine, TrainResult,
};
