#![warn(missing_docs)]

//! Online inference serving for checkpointed SkipNode-stack models.
//!
//! Training answers "what are the logits of every node"; serving answers
//! "what are the logits of *this* node, now, on the graph as it exists
//! this millisecond". This crate provides the runtime between the two
//! (DESIGN.md §15):
//!
//! - [`ServeEngine`] — loads a [`skipnode_nn::ModelCheckpoint`], records
//!   the model's evaluation forward once, precomputes the normalized
//!   adjacency in patchable form ([`skipnode_sparse::DynamicAdjacency`]),
//!   and answers micro-batches of node queries by replaying that forward
//!   ([`skipnode_autograd::Frontier`]) over each batch's k-hop frontier
//!   only. Batched, sequential, and full-graph evaluation are bitwise
//!   identical, on both the f32 and the int8-quantized path.
//! - [`InferenceServer`] — a worker thread with an adaptive batching
//!   window: requests arriving within the window (or until a size cap)
//!   coalesce into one frontier forward. Graph updates
//!   ([`skipnode_graph::GraphUpdate`]) share the queue and are applied
//!   before the batch they precede.

mod engine;
mod server;

pub use engine::{EngineStats, ServeEngine, ServeError, ServeMode};
pub use server::{InferenceServer, ServerConfig, ServerStats};
