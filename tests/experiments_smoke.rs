//! Smoke test: every experiment in the harness runs to completion at Quick
//! scale and every PASS/FAIL verdict it prints passes.

use dwrs_bench::{run_experiment, Scale, ALL_EXPERIMENTS};

#[test]
fn all_experiments_run_quick() {
    for id in ALL_EXPERIMENTS {
        assert_eq!(
            run_experiment(id, Scale::Quick),
            Some(true),
            "experiment {id} is unknown or failed its verdict"
        );
    }
}

#[test]
fn unknown_experiment_rejected() {
    assert_eq!(run_experiment("e999", Scale::Quick), None);
}

#[test]
fn table5_alias_works() {
    assert_eq!(run_experiment("table5", Scale::Quick), Some(true));
}
