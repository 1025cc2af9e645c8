#![warn(missing_docs)]

//! Sparse matrix substrate for the SkipNode reproduction.
//!
//! Provides:
//! - [`CsrMatrix`]: compressed-sparse-row matrices with threaded
//!   sparse×dense products (the `Ã X` in every GCN layer);
//! - GCN symmetric normalization `Ã = (D+I)^{-1/2}(A+I)(D+I)^{-1/2}`
//!   including the masked variants DropEdge / DropNode need for per-epoch
//!   renormalization;
//! - spectral instruments: the over-smoothing subspace `M` of Oono & Suzuki
//!   (per-component `sqrt(deg+1)` eigenvectors of `Ã` at eigenvalue 1), the
//!   distance `d_M(X)`, and `λ` — the second-largest eigenvalue magnitude
//!   that drives the paper's `(sλ)^L` convergence bound.
//!
//! See `src/README.md` for the sparse propagation engine's partitioning and
//! masked-kernel design (nnz balancing, [`CsrMatrix::spmm_rows_subset`],
//! [`CsrMatrix::spmm_cols_compact`], cached symmetry/transpose metadata).

mod build;
mod csr;
mod normalize;
mod patch;
mod spectral;
pub mod stats;

pub use build::{dedup_undirected_edges, CooBuilder};
pub use csr::{CsrMatrix, COL_SKIP, SPARSE_INPUT_DENSITY_DIVISOR, SPMM_PARALLEL_THRESHOLD};
pub use normalize::{gcn_adjacency, gcn_adjacency_filtered, gcn_adjacency_with_node_mask};
pub use patch::DynamicAdjacency;
pub use spectral::{connected_components, second_largest_eigen_magnitude, SmoothingSubspace};
