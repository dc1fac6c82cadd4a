//! The workspace must stay clean under its own static-analysis pass.
//!
//! This is the enforcement point for the invariants `lint.toml` declares:
//! deleting a `// SAFETY:` comment, dropping the `EpollEvent` packed-repr
//! cfg-gate, introducing an undocumented wire tag, or nesting locks
//! against the declared order all fail this test (and `dwrs-lint --deny`
//! in CI) with a `file:line` diagnostic.

use std::path::Path;

use dwrs_lint::config::Config;

#[test]
fn workspace_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let cfg = Config::load(&root.join("lint.toml")).expect("lint.toml parses");
    let report = dwrs_lint::run(root, &cfg);
    assert!(
        report.files > 100,
        "suspiciously few files scanned ({}) — include roots wrong?",
        report.files
    );
    assert!(
        report.findings.is_empty(),
        "workspace has lint findings:\n{}",
        report.render_text()
    );
}

#[test]
fn lint_config_declares_the_core_invariants() {
    // The config itself is part of the contract: the lock chains and hot
    // paths documented in docs/CONCURRENCY.md must actually be declared,
    // otherwise L003/L004 silently check nothing.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let cfg = Config::load(&root.join("lint.toml")).expect("lint.toml parses");
    assert!(
        cfg.lock_chains
            .iter()
            .any(|c| c.windows(2).any(|w| w[0] == "streams" && w[1] == "drained")),
        "daemon lock order streams -> drained must stay declared"
    );
    // A stream's state lock, which live reads take on their connection's
    // thread, is a leaf: it must be a declared lock, and in no chain.
    assert!(
        cfg.lock_names.iter().any(|l| l == "cut"),
        "the daemon's stream-state lock `cut` must stay declared"
    );
    assert!(
        cfg.lock_chains
            .iter()
            .all(|c| !c.iter().any(|l| l == "cut")),
        "the stream-state lock `cut` must not nest with another lock"
    );
    let hot: Vec<&str> = cfg.hot_functions.iter().map(|h| h.func.as_str()).collect();
    for f in ["coord_reactor", "observe", "receive_early", "insert"] {
        assert!(hot.contains(&f), "hot path {f} missing from lint.toml");
    }
    // The one site scheduler: both engines' sites run through the pool's
    // worker loop and a task's turn over its items.
    for f in ["site_worker", "step"] {
        assert!(
            cfg.hot_functions
                .iter()
                .any(|h| h.file.ends_with("runtime/src/engine.rs") && h.func == f),
            "engine.rs::{f} missing from lint.toml's hot paths"
        );
    }
    assert!(
        cfg.tag_namespaces.len() >= 4,
        "all four wire-tag namespaces must stay declared"
    );
    assert!(cfg.trace.is_some(), "trace catalog must stay declared");
}
