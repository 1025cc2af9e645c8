#![warn(missing_docs)]

//! Dense f32 matrix library underpinning the SkipNode reproduction.
//!
//! The crate provides a row-major [`Matrix`] type with the operations a
//! graph-neural-network stack needs: threaded GEMM, elementwise maps,
//! row-wise reductions, Glorot/He initializers, and the power-iteration
//! routines the paper's theory requires (largest singular value of a weight
//! matrix).
//!
//! Everything is `f32` storage with `f64` accumulation in the reductions
//! where precision matters (norms, losses, power iteration). One
//! reduced-precision side channel exists: [`quant`] provides int8
//! post-training quantization for the no-grad inference path.
//!
//! # Quick example
//!
//! ```
//! use skipnode_tensor::Matrix;
//!
//! let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
//! let b = Matrix::eye(2);
//! let c = a.matmul(&b);
//! assert_eq!(c, a);
//! ```

mod gemm;
mod init;
pub mod kstats;
mod linalg;
mod matrix;
pub mod pool;
pub mod quant;
mod reduce;
mod rng;
pub mod segment;
pub mod simd;
pub mod workspace;

pub use init::{glorot_uniform, he_normal, Init};
pub use linalg::{max_singular_value, power_iteration, PowerIterOptions};
pub use matrix::Matrix;
pub use reduce::{cosine_distance_rows, frobenius_norm, l2_norm_sq, row_softmax_in_place};
pub use rng::{normal_f32, uniform_f32, SplitRng};
pub use segment::{ReadoutKind, SegmentTable};
