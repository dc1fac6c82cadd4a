//! The four benchmark workloads, the outcome a run accumulates, and the
//! pinned lockstep reference counts.

use std::collections::BTreeMap;

use dwrs_runtime::{EngineKind, Query, Scenario, Topology, Workload};

/// Sample size of every workload (L1 derives its own effective size).
pub const S: usize = 64;
/// Skew of the `zipf_iid` weights every workload draws.
pub const ZIPF_ALPHA: f64 = 1.1;
/// Groups and sync period of the tree workload.
pub const TREE_GROUPS: usize = 2;
/// Aggregator→root sync period of the tree workload, in items per group.
pub const TREE_SYNC_EVERY: u64 = 10_000;
/// Open-loop feed rate of `daemon-live`, in items per second.
pub const DAEMON_RATE: u64 = 2_000_000;
/// Seed of the fixed-size lockstep check every invocation runs against
/// the pinned counts, whatever `--seed` it was given.
pub const CANON_SEED: u64 = 101;
/// Items of that check.
pub const CANON_N: u64 = 200_000;

/// Which system a workload drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `run_scenario` on the flat `threads` engine.
    Threads,
    /// `run_scenario` on the flat `epoll` engine.
    Epoll,
    /// `run_scenario` on the `threads` engine, two-group tree.
    Tree,
    /// A `dwrs daemon` child process fed over `AttachClient`.
    Daemon,
}

/// One workload: what it drives and at what size.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// The system under test.
    pub kind: Kind,
    /// Sites.
    pub k: usize,
    /// The application query.
    pub query: Query,
    /// Items per timed `run_scenario` repeat (engine workloads).
    pub n: u64,
}

/// Every workload, in `BENCHMARK.json` order.
pub fn specs() -> [Spec; 4] {
    let l1 = Query::parse("l1").expect("default l1 query parses");
    [
        Spec {
            name: "swor-threads-k8",
            kind: Kind::Threads,
            k: 8,
            query: Query::Swor,
            n: 4_000_000,
        },
        Spec {
            name: "swor-epoll-k64",
            kind: Kind::Epoll,
            k: 64,
            query: Query::Swor,
            n: 500_000,
        },
        Spec {
            name: "l1-tree-k8",
            kind: Kind::Tree,
            k: 8,
            query: l1,
            n: 2_000_000,
        },
        Spec {
            name: "daemon-live",
            kind: Kind::Daemon,
            k: 1,
            query: Query::Swor,
            n: 0,
        },
    ]
}

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<Spec> {
    specs().into_iter().find(|s| s.name == name)
}

impl Spec {
    /// The scenario this workload runs at `n` items. `daemon-live` maps to
    /// the same stream on the flat `threads` engine with `k = 1`, which
    /// its lockstep reference and its engine probes use.
    pub fn scenario(&self, n: u64, seed: u64) -> Scenario {
        let engine = match self.kind {
            Kind::Epoll => EngineKind::Epoll,
            _ => EngineKind::Threads,
        };
        let sc = Scenario::new(engine, self.k, S)
            .with_n(n)
            .with_seed(seed)
            .with_workload(Workload::Zipf { alpha: ZIPF_ALPHA })
            .with_query(self.query);
        match self.kind {
            Kind::Tree => sc.with_topology(Topology::Tree {
                groups: TREE_GROUPS,
                sync_every: TREE_SYNC_EVERY,
            }),
            _ => sc,
        }
    }

    /// The identical scenario on the single-threaded lockstep simulator.
    pub fn lockstep(&self, n: u64, seed: u64) -> Scenario {
        let mut sc = self.scenario(n, seed);
        sc.engine = EngineKind::Lockstep;
        sc
    }
}

/// Items the open-loop writer feeds in `feed_s` seconds.
pub fn daemon_items(feed_s: f64) -> u64 {
    (DAEMON_RATE as f64 * feed_s) as u64
}

/// Seconds of open-loop feeding in a `daemon-live` run of `seconds`.
pub fn feed_seconds(seconds: f64) -> f64 {
    0.7 * seconds
}

/// What a run accumulates: operations attempted and failed, and metrics.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations checked.
    pub attempted: u64,
    /// Operations that failed or broke an invariant.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
    /// Metric name → (value, unit).
    pub metrics: BTreeMap<String, (f64, &'static str)>,
    /// Lines of the human-readable report.
    pub lines: Vec<String>,
    /// Fail the next check on purpose (the gate's own test).
    pub inject_failure: bool,
}

impl Outcome {
    /// Counts one operation; it fails when `problems` is non-empty.
    pub fn check(&mut self, what: &str, mut problems: Vec<String>) -> bool {
        if std::mem::take(&mut self.inject_failure) {
            problems.push("injected failure".into());
        }
        self.attempted += 1;
        if problems.is_empty() {
            return true;
        }
        self.failed += 1;
        self.failures
            .push(format!("{what}: {}", problems.join("; ")));
        false
    }

    /// Counts one operation that returned an error.
    pub fn fail(&mut self, what: &str, err: impl std::fmt::Display) {
        self.check(what, vec![err.to_string()]);
    }

    /// Records a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.insert(name.to_string(), (value, unit));
    }

    /// Adds a line to the human-readable report.
    pub fn say(&mut self, line: String) {
        self.lines.push(line);
    }
}

/// One pinned lockstep count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pinned {
    /// Up-messages.
    pub up: u64,
    /// Down-messages.
    pub down: u64,
}

/// The pinned lockstep counts, keyed by `(workload, seed, items)`.
pub type PinTable = BTreeMap<(String, u64, u64), Pinned>;

/// Parses the pin file: `workload seed items up down` per line, `#`
/// comments.
pub fn parse_pins(text: &str) -> Result<PinTable, String> {
    let mut table = PinTable::new();
    for (no, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let f: Vec<&str> = line.split_whitespace().collect();
        let num = |i: usize| -> Result<u64, String> {
            f.get(i)
                .and_then(|x| x.parse().ok())
                .ok_or_else(|| format!("pin file line {}: bad field {i}", no + 1))
        };
        if f.len() != 5 {
            return Err(format!("pin file line {}: expected 5 fields", no + 1));
        }
        table.insert(
            (f[0].to_string(), num(1)?, num(2)?),
            Pinned {
                up: num(3)?,
                down: num(4)?,
            },
        );
    }
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pins_parse_and_reject_garbage() {
        let t = parse_pins("# c\nswor-threads-k8 101 200000 7 8\n").unwrap();
        assert_eq!(
            t[&("swor-threads-k8".to_string(), 101, 200_000)],
            Pinned { up: 7, down: 8 }
        );
        assert!(parse_pins("a 1 2 3\n").is_err());
        assert!(parse_pins("a 1 2 x 4\n").is_err());
    }

    #[test]
    fn the_injected_failure_fails_exactly_one_check() {
        let mut o = Outcome {
            inject_failure: true,
            ..Outcome::default()
        };
        assert!(!o.check("first", Vec::new()));
        assert!(o.check("second", Vec::new()));
        assert_eq!((o.attempted, o.failed), (2, 1));
    }

    #[test]
    fn every_workload_scenario_validates() {
        for spec in specs() {
            assert!(spec.scenario(1000, 1).validate().is_ok(), "{}", spec.name);
            assert_eq!(find(spec.name).unwrap().k, spec.k);
        }
    }
}
