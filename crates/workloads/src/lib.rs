//! # dwrs-workloads
//!
//! Weighted-stream workload generators for the experiments, including the
//! adversarial instances from the paper's lower-bound proofs (Theorems 5
//! and 7). All generators are deterministic given a seed.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod basic;
pub mod hard;
pub mod skewed;
pub mod source;
pub mod trace;

pub use basic::{uniform_weights, unit};
pub use hard::{exploding, l1_unit_epochs, weighted_epochs};
pub use skewed::{few_heavy, lognormal, pareto, residual_skew, zipf_ranked, Placement};
pub use source::{
    lognormal_staged, lognormal_stream, pareto_staged, pareto_stream, uniform_staged,
    uniform_stream, unit_stream, zipf_staged, zipf_stream, CsvSource, ItemSource, Staged,
    WeightMap,
};
pub use trace::query_log;
