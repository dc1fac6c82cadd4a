//! Experiment driver: regenerates every table/claim of the paper.
//!
//! Usage:
//!
//! ```text
//! experiments [--quick] all
//! experiments [--quick] e1 e4 table5 ...
//! ```
//!
//! Exits 1 when any experiment's verdict failed (after printing every
//! table), 2 on a usage error or an unknown id.

use dwrs_bench::{run_experiment, Scale, ALL_EXPERIMENTS};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let scale = if quick { Scale::Quick } else { Scale::Full };
    let ids: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();
    if ids.is_empty() {
        eprintln!("usage: experiments [--quick] all | <ids...>");
        eprintln!("known ids: {}", ALL_EXPERIMENTS.join(" "));
        std::process::exit(2);
    }
    let run_all = ids.contains(&"all");
    let selected: Vec<&str> = if run_all {
        ALL_EXPERIMENTS.to_vec()
    } else {
        ids
    };
    let started = std::time::Instant::now();
    let mut failed = Vec::new();
    for id in &selected {
        let t0 = std::time::Instant::now();
        match run_experiment(id, scale) {
            None => {
                eprintln!("unknown experiment id: {id}");
                std::process::exit(2);
            }
            Some(false) => failed.push(*id),
            Some(true) => {}
        }
        println!("[{} done in {:.1?}]", id, t0.elapsed());
    }
    println!(
        "\nall {} experiment(s) finished in {:.1?}",
        selected.len(),
        started.elapsed()
    );
    if !failed.is_empty() {
        eprintln!("verdict FAIL in: {}", failed.join(" "));
        std::process::exit(1);
    }
}
