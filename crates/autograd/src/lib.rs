#![warn(missing_docs)]

//! Tape-based reverse-mode automatic differentiation over dense matrices.
//!
//! The engine is deliberately specialized to what GNN training needs:
//! values are whole [`Matrix`](skipnode_tensor::Matrix) activations
//! (nodes × features), the op set is a closed enum (GEMM, sparse
//! propagation, ReLU, dropout, PairNorm, the SkipNode row-combine, …), and
//! losses produce explicit seed gradients so the *gradient at the
//! classification layer* — the quantity Figure 2(b) of the paper tracks —
//! is directly observable.
//!
//! A fresh [`Tape`] is built per forward pass; parameters are copied in as
//! leaf nodes and their gradients read back out by registration order.
//! Each op's forward and backward arithmetic is written once and shared by
//! eager tapes, compiled replay ([`TrainProgram`]) and no-grad inference
//! ([`Tape::inference`]).
//!
//! ```
//! use skipnode_autograd::Tape;
//! use skipnode_tensor::Matrix;
//!
//! let mut tape = Tape::new();
//! let w = tape.param(Matrix::from_rows(&[&[2.0]]));
//! let x = tape.constant(Matrix::from_rows(&[&[3.0]]));
//! let y = tape.matmul(x, w);
//! // dL/dy = 1 seeds the backward pass.
//! let grads = tape.backward(y, Matrix::from_rows(&[&[1.0]]));
//! assert_eq!(grads[&w].get(0, 0), 3.0); // dy/dw = x
//! ```

mod attention;
mod gradcheck;
mod infer;
mod loss;
mod ops;
pub mod subset;
mod tape;
mod train_exec;

pub use attention::AttentionGraph;
pub use gradcheck::finite_difference_check;
pub use loss::{bce_with_logits, softmax_cross_entropy, LossOutput};
pub use ops::FusedStep;
pub use tape::{AdjId, NodeId, Tape};
pub use train_exec::{EpochSampler, TrainProgram};
