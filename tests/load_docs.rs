//! Doc-sync: `docs/LOAD.md` must document every schedule, every fault
//! action, and every key of the `--format json` report the harness
//! actually emits, and the CLI usage banner must advertise the same
//! catalogs — adding a schedule or widening the report without
//! documenting it fails CI.

use dwrs::load::{FAULT_NAMES, SCHEDULE_NAMES};

fn repo_file(rel: &str) -> String {
    let path = format!("{}/{}", env!("CARGO_MANIFEST_DIR"), rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

#[test]
fn every_schedule_is_documented() {
    let guide = repo_file("docs/LOAD.md");
    let usage = repo_file("crates/cli/src/args.rs");
    for name in SCHEDULE_NAMES {
        assert!(
            guide.contains(&format!("`{name}`")),
            "docs/LOAD.md does not document the '{name}' schedule"
        );
        assert!(
            usage.contains(name),
            "the CLI usage banner does not mention the '{name}' schedule"
        );
    }
}

#[test]
fn every_fault_action_is_documented() {
    let guide = repo_file("docs/LOAD.md");
    let usage = repo_file("crates/cli/src/args.rs");
    for name in FAULT_NAMES {
        assert!(
            guide.contains(&format!("`{name}`")),
            "docs/LOAD.md does not document the '{name}' fault action"
        );
        assert!(
            usage.contains(name),
            "the CLI usage banner does not mention the '{name}' fault action"
        );
    }
}

/// The top-level keys of an actual report row, extracted from the
/// serializer itself so the doc table can never drift from the code.
fn bench_row_keys() -> Vec<String> {
    let report = dwrs::load::LoadReport {
        schedule: "steady".into(),
        rate: 1,
        chaos: false,
        seed: 0,
        writers: 1,
        query_workers: 0,
        n: 1,
        fed: 1,
        delivered: 1,
        elapsed_s: 1.0,
        achieved_rate: 1.0,
        rate_error_pct: 0.0,
        queries: 0,
        scrapes: 0,
        query_errors: 0,
        latency: None,
        events: vec![],
        violations: vec![],
    };
    let json = report.to_json();
    let mut keys = Vec::new();
    let mut depth = 0usize;
    let mut rest = json.as_str();
    // Top-level keys only: a `"name":` immediately inside the outer
    // object. The row holds no string values containing `{`/`[`, so
    // bracket counting is exact here.
    while let Some(ix) = rest.find(['{', '[', '}', ']', '"']) {
        match rest.as_bytes()[ix] {
            b'{' | b'[' => depth += 1,
            b'}' | b']' => depth -= 1,
            _ => {
                let tail = &rest[ix + 1..];
                let end = tail.find('"').expect("closing quote");
                if depth == 1 && tail[end + 1..].starts_with(':') {
                    keys.push(tail[..end].to_string());
                }
                rest = &tail[end + 1..];
                continue;
            }
        }
        rest = &rest[ix + 1..];
    }
    keys
}

#[test]
fn every_bench_row_key_is_documented() {
    let keys = bench_row_keys();
    assert!(
        keys.len() >= 17,
        "the JSON report shrank unexpectedly: {keys:?}"
    );
    let guide = repo_file("docs/LOAD.md");
    for key in &keys {
        assert!(
            guide.contains(&format!("`{key}`")),
            "docs/LOAD.md does not document the JSON report key '{key}'"
        );
    }
}

#[test]
fn invariants_and_cross_references_are_present() {
    let guide = repo_file("docs/LOAD.md");
    for needle in [
        "merge_two",
        "Monotone watermarks",
        "ReattachExhausted",
        "load-smoke",
        "docs/DAEMON.md",
        "QuantileSketch",
    ] {
        assert!(guide.contains(needle), "docs/LOAD.md is missing {needle}");
    }
    let arch = repo_file("docs/ARCHITECTURE.md");
    assert!(
        arch.contains("dwrs-load"),
        "docs/ARCHITECTURE.md does not describe the load harness"
    );
}

#[test]
fn readme_links_the_guide() {
    let readme = repo_file("README.md");
    assert!(
        readme.contains("docs/LOAD.md"),
        "README.md does not link the load-harness guide"
    );
}
