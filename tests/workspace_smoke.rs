//! Smoke tests for the workspace wiring itself: the `dwrs` facade must
//! re-export every member crate under its documented name, and the
//! quickstart scenario from the crate docs must actually run.

use dwrs::core::swor::SworConfig;
use dwrs::core::Item;
use dwrs::sim::{assign_sites, build_swor, Partition};

/// Every documented facade path resolves and exposes a usable symbol.
#[test]
fn facade_reexports_resolve() {
    // dwrs::core
    let item = dwrs::core::Item::new(1, 2.0);
    assert_eq!(item.weight, 2.0);
    // dwrs::sim
    let sites = dwrs::sim::assign_sites(dwrs::sim::Partition::RoundRobin, 2, 4, 0);
    assert_eq!(sites, vec![0, 1, 0, 1]);
    // dwrs::workloads
    let items = dwrs::workloads::uniform_weights(8, 1.0, 2.0, 3);
    assert_eq!(items.len(), 8);
    // dwrs::apps
    let cfg = dwrs::apps::l1::L1Config::new(0.1, 0.25, 4);
    assert!(cfg.eps > 0.0);
    // dwrs::stats
    let d = dwrs::stats::tv_distance(&[0.5, 0.5], &[0.5, 0.5]);
    assert!(d.abs() < 1e-12);
    // dwrs::runtime and the root-level scenario driver re-exports.
    let sc = dwrs::Scenario::new(dwrs::EngineKind::Lockstep, 2, 4)
        .with_n(64)
        .with_workload(dwrs::Workload::Unit);
    let report = dwrs::run_scenario(&sc).expect("facade scenario run");
    assert_eq!(report.sample.len(), 4);
    assert!(report.invariants_ok());
    // Facade version string is wired through from the manifest.
    assert!(!dwrs::VERSION.is_empty());
}

/// The quickstart flow from the crate docs, at a different point in config
/// space (the doctest in `src/lib.rs` covers s=8, k=4, seed 42): build a
/// runner, stream weighted items, and check the sample plus message
/// optimality end-to-end through the facade.
#[test]
fn quickstart_scenario_runs() {
    let (s, k) = (16, 8);
    let mut runner = build_swor(SworConfig::new(s, k), 1234);
    let items: Vec<Item> = (0..20_000u64)
        .map(|i| Item::new(i, 1.0 + (i % 29) as f64))
        .collect();
    let sites = assign_sites(Partition::Random, k, items.len(), 9);
    runner.run(sites.into_iter().zip(items));

    let sample = runner.coordinator.sample();
    assert_eq!(sample.len(), s);
    assert!(
        runner.metrics.total() < 4_000,
        "protocol no longer message-optimal: {} messages for 20k items",
        runner.metrics.total()
    );
}

/// Every markdown file a comment names under `src/`, `crates/*/src`,
/// `tests/` and `examples/` exists, as a path from the repository root.
#[test]
fn markdown_files_named_in_comments_exist() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut dirs = vec![root.join("src"), root.join("tests"), root.join("examples")];
    for krate in std::fs::read_dir(root.join("crates")).expect("crates/") {
        dirs.push(krate.expect("crate dir").path().join("src"));
    }
    let mut missing = Vec::new();
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir).expect("source dir") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                dirs.push(path);
                continue;
            }
            if path.extension().is_none_or(|e| e != "rs") {
                continue;
            }
            let text = std::fs::read_to_string(&path).expect("source file");
            for (i, line) in text.lines().enumerate() {
                let Some((_, comment)) = line.split_once("//") else {
                    continue;
                };
                let words =
                    comment.split(|c: char| !(c.is_ascii_alphanumeric() || "_./-".contains(c)));
                for word in words.map(|w| w.trim_end_matches('.')) {
                    if word.len() > 3 && word.ends_with(".md") && !root.join(word).is_file() {
                        missing.push(format!("{}:{}: {word}", path.display(), i + 1));
                    }
                }
            }
        }
    }
    assert!(
        missing.is_empty(),
        "comments name missing files:\n{}",
        missing.join("\n")
    );
}
