#![warn(missing_docs)]

//! Shared harness utilities for the experiment binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper (see DESIGN.md §4 for the index). This library provides the CLI
//! argument plumbing, the backbone/strategy factories, aligned table
//! printing, and the repeated-split experiment runner they all share.

pub mod executor;
pub mod harness;
pub mod sweep;
pub mod table;
pub mod timing;

pub use executor::{derive_seed, parse_workers, Executor};
pub use harness::{
    build_model, mean_std, require, run_classification, strategy_by_name, tuned_rho, ExpArgs,
    Protocol, RunOutcome,
};
pub use sweep::{sweep_backbone, sweep_rate, RateSweepResult, SweepResult, SweepSpace};
pub use table::TablePrinter;
pub use timing::{fmt_ns, Bencher, Sample};
