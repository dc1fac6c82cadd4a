//! Doc-sync: `docs/DAEMON.md`'s wire reference must document every
//! control frame the codec actually implements — the acceptance gate for
//! the operator guide. Tag extraction goes through `dwrs_lint`'s L005
//! parser (`wire_tags_in`), the same token-level parse `dwrs-lint --deny`
//! enforces in CI, so this test and the lint can never disagree about
//! what counts as a wire tag.

use std::collections::BTreeSet;

use dwrs::core::ctrl::{LiveQueryKind, SNAPSHOT_ENTRY_BYTES};

fn repo_file(rel: &str) -> String {
    let path = format!("{}/{}", env!("CARGO_MANIFEST_DIR"), rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

/// `(name, "0xNN")` for every `const TAG_...: u8 = 0xNN;` in the control
/// codec source — a thin wrapper over the lint's L005 tag parser.
fn wire_tags() -> Vec<(String, String)> {
    dwrs_lint::wire_tags_in(&repo_file("crates/core/src/ctrl.rs"))
        .into_iter()
        .map(|t| (t.name, t.text))
        .collect()
}

#[test]
fn every_control_frame_is_documented() {
    let tags = wire_tags();
    assert_eq!(
        tags.len(),
        11,
        "control tag inventory changed — update this test and docs/DAEMON.md: {tags:?}"
    );
    let guide = repo_file("docs/DAEMON.md");
    for (name, hex) in &tags {
        assert!(
            guide.contains(name),
            "docs/DAEMON.md does not document the {name} frame"
        );
        assert!(
            guide.contains(hex),
            "docs/DAEMON.md does not show {name}'s tag byte {hex}"
        );
    }
}

#[test]
fn every_live_query_kind_is_documented() {
    let guide = repo_file("docs/DAEMON.md");
    for kind in LiveQueryKind::all() {
        assert!(
            guide.contains(kind.name()),
            "docs/DAEMON.md does not document the '{}' query kind",
            kind.name()
        );
        assert!(
            guide.contains(&format!("| {} |", kind.as_u8())),
            "docs/DAEMON.md does not show '{}'s wire byte {}",
            kind.name(),
            kind.as_u8()
        );
    }
}

#[test]
fn snapshot_entry_size_is_documented() {
    let guide = repo_file("docs/DAEMON.md");
    assert!(
        guide.contains(&format!(
            "`SNAPSHOT_ENTRY_BYTES` = {SNAPSHOT_ENTRY_BYTES} bytes"
        )),
        "docs/DAEMON.md does not state the {SNAPSHOT_ENTRY_BYTES}-byte snapshot entry size"
    );
}

/// `"dwrs_..."` string value for every `pub const METRIC_...` in the
/// telemetry name catalog.
fn metric_names() -> Vec<String> {
    let src = repo_file("crates/telemetry/src/names.rs");
    let mut names = Vec::new();
    for line in src.lines() {
        let line = line.trim();
        if !line.starts_with("pub const METRIC_") {
            continue;
        }
        let Some((_, rhs)) = line.split_once('"') else {
            continue;
        };
        let Some((value, _)) = rhs.split_once('"') else {
            continue;
        };
        names.push(value.to_string());
    }
    names
}

#[test]
fn every_metric_name_is_documented() {
    // Both directions: a series the code names but the "Metric names"
    // table lacks fails, and so does a row for a series the code no
    // longer names.
    let names: BTreeSet<String> = metric_names().into_iter().collect();
    let rows: BTreeSet<String> = repo_file("docs/DAEMON.md")
        .lines()
        .filter_map(|row| row.strip_prefix("| `dwrs_")?.split_once('`'))
        .map(|(rest, _)| format!("dwrs_{rest}"))
        .collect();
    assert!(!names.is_empty(), "no metric names parsed from names.rs");
    assert_eq!(rows, names, "docs/DAEMON.md and names.rs disagree");
}

#[test]
fn every_trace_event_is_documented() {
    let guide = repo_file("docs/DAEMON.md");
    for kind in dwrs::telemetry::TraceKind::all() {
        assert!(
            guide.contains(&format!("| {} | `{}` |", kind.as_u8(), kind.name())),
            "docs/DAEMON.md trace catalog is missing code {} ({})",
            kind.as_u8(),
            kind.name()
        );
    }
}

#[test]
fn every_engine_is_documented() {
    // Each engine the CLI parses must appear in the usage banner and the
    // architecture guide — adding an engine without documenting it fails
    // here (the runtime's FromStr error message enumerates the full set).
    let usage = repo_file("crates/cli/src/args.rs");
    let arch = repo_file("docs/ARCHITECTURE.md");
    let err = "quantum".parse::<dwrs::runtime::EngineKind>().unwrap_err();
    for engine in ["lockstep", "threads", "epoll"] {
        assert!(
            err.contains(engine),
            "EngineKind's parse error does not enumerate '{engine}': {err}"
        );
        assert!(
            usage.contains(engine),
            "CLI usage banner does not mention the '{engine}' engine"
        );
        assert!(
            arch.contains(engine),
            "docs/ARCHITECTURE.md does not mention the '{engine}' engine"
        );
    }
    assert!(
        arch.contains("Event-driven engine"),
        "docs/ARCHITECTURE.md is missing the event-driven engine section"
    );
}

#[test]
fn metrics_frame_is_cross_referenced() {
    let guide = repo_file("docs/DAEMON.md");
    for needle in [
        "TAG_METRICS",
        "TAG_METRICS_REPORT",
        "dwrs top",
        "dwrs metrics",
    ] {
        assert!(
            guide.contains(needle),
            "docs/DAEMON.md telemetry section is missing {needle}"
        );
    }
    let arch = repo_file("docs/ARCHITECTURE.md");
    assert!(
        arch.contains("dwrs-telemetry"),
        "docs/ARCHITECTURE.md does not describe the telemetry layer"
    );
}

#[test]
fn readme_links_the_guide() {
    let readme = repo_file("README.md");
    assert!(
        readme.contains("docs/DAEMON.md"),
        "README.md does not link the daemon operator guide"
    );
}
