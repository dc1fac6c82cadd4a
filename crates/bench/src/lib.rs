//! # dwrs-bench
//!
//! Experiment harness regenerating every quantitative claim of the paper
//! as printed tables, with PASS/FAIL verdicts where a claim has an exact
//! oracle (README.md, "Experiments and benchmarks").
//!
//! Run everything:
//!
//! ```text
//! cargo run --release -p dwrs-bench --bin experiments -- all
//! ```
//!
//! or a subset, e.g. `-- e1 e13 table5`. `--quick` shrinks instance sizes
//! (used by the integration tests to smoke-run the whole harness). The
//! binary exits 1 when any verdict failed.
//!
//! Timing lives elsewhere: `perfbench/` is the repository's one benchmark.

#![warn(missing_docs)]

pub mod exps;
pub mod scale;
pub mod table;

pub use scale::Scale;

/// All experiment ids, in run order.
pub const ALL_EXPERIMENTS: &[&str] = &[
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "e14", "e15",
    "e16", "e17", "e18", "e19", "e20", "e21",
];

/// Runs one experiment by id ("table5" aliases "e13"). Returns `None` for
/// an unknown id, else whether every verdict the experiment printed
/// passed: a PASS/FAIL line or a true/false check column (E6's `ok`,
/// E17's `sample_ok`). An experiment that prints neither passes.
pub fn run_experiment(id: &str, scale: Scale) -> Option<bool> {
    let passed = match id {
        "e4" => exps::correctness::e4_inclusion(scale),
        "e5" => exps::swr_exp::e5_swr(scale),
        "e6" => exps::levels::e6_level_invariants(scale),
        "e8" => exps::precision_exp::e8_bits(scale),
        "e17" => exps::robust::e17_delay(scale),
        "e18" => exps::window::e18_sliding_window(scale),
        _ => {
            let table_only: fn(Scale) = match id {
                "e1" => exps::swor_msgs::e1_w_sweep,
                "e2" => exps::swor_msgs::e2_k_s_sweep,
                "e3" => exps::swor_msgs::e3_vs_naive,
                "e7" => exps::epochs::e7_epoch_count,
                "e9" => exps::rhh::e9_recall,
                "e10" => exps::rhh::e10_messages,
                "e11" => exps::rhh::e11_lower_bound,
                "e12" => exps::l1_exp::e12_accuracy,
                "e13" | "table5" => exps::l1_exp::e13_table5,
                "e14" => exps::l1_exp::e14_lower_bound,
                "e15" => exps::levels::e15_ablation_no_levels,
                "e16" => exps::levels::e16_ablation_r,
                "e19" => exps::l1_exp::e19_piggyback,
                "e20" => exps::levels::e20_capacity_factor,
                "e21" => exps::robust::e21_partitioning,
                _ => return None,
            };
            table_only(scale);
            true
        }
    };
    Some(passed)
}
