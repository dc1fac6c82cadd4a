//! Experiment implementations (`run_experiment` maps each id to one).

pub mod correctness;
pub mod epochs;
pub mod l1_exp;
pub mod levels;
pub mod precision_exp;
pub mod rhh;
pub mod robust;
pub mod swor_msgs;
pub mod swr_exp;
pub mod util;
pub mod window;
