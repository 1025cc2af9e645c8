#![warn(missing_docs)]

//! Graph data substrate: datatypes, synthetic dataset generators matched to
//! the SkipNode paper's benchmarks (Table 2), and train/val/test splits.
//!
//! The paper evaluates on Planetoid citation graphs (Cora, Citeseer,
//! Pubmed), heterophilic web graphs (Chameleon, Cornell, Texas, Wisconsin),
//! and OGB graphs (ogbn-arxiv, ogbl-ppa). Those are external downloads, so
//! this crate substitutes **seeded synthetic generators matched to the
//! published statistics** — node/edge counts, feature dimensionality, class
//! count, and homophily level — which preserve the over-smoothing dynamics
//! the paper studies (`λ` close to 1, class structure recoverable from
//! features + topology). See DESIGN.md §3 for the substitution table.

mod batch;
mod centrality;
mod dataset;
mod generators;
mod graph;
mod large;
mod partition;
mod preprocess;
mod splits;
mod stream;
mod update;

pub use batch::{
    graph_classification_dataset, graph_level_split, GraphBatch, GraphClassConfig, GraphClassSet,
};
pub use centrality::pagerank;
pub use dataset::{load, DatasetName, DatasetSpec, Scale, ALL_DATASETS};
pub use generators::{
    barabasi_albert_with_classes, class_feature_matrix, class_feature_matrix_from, erdos_renyi,
    partition_graph, planted_partition, ring_of_blocks, FeatureStyle, PartitionConfig, RingConfig,
};
pub use graph::Graph;
pub use large::LargeGraph;
pub use partition::{partition_nodes, ShardSet, SubgraphShard};
pub use preprocess::{row_normalize, standardize};
pub use splits::{full_supervised_split, link_split, semi_supervised_split, LinkSplit, Split};
pub use stream::{
    assemble_large_graph, streamed_ba_graph, streamed_partition_graph, streamed_ring_graph,
    BaStream, PlantedPartitionStream, RingOfBlocksStream, StreamedGraphStats,
};
pub use update::{GraphUpdate, UpdateStream};
