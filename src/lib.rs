//! # dwrs — Weighted Reservoir Sampling from Distributed Streams
//!
//! A production-quality Rust implementation of Jayaram, Sharma, Tirthapura
//! and Woodruff, *"Weighted Reservoir Sampling from Distributed Streams"*
//! (PODS 2019, arXiv:1904.04126), together with the substrates and baselines
//! needed to reproduce every quantitative claim of the paper.
//!
//! This facade crate re-exports the workspace members:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`core`] | `dwrs-core` | the message-optimal distributed weighted SWOR (Algorithms 1–3), weighted SWR reduction, unweighted substrates, centralized reference samplers, exact oracle, math/RNG |
//! | [`sim`] | `dwrs-sim` | the distributed coordinator-model simulator with exact message metering |
//! | [`runtime`] | `dwrs-runtime` | concurrent site/coordinator engines (threads, loopback TCP) in flat and hierarchical topologies, incl. the lockstep fan-in tree |
//! | [`workloads`] | `dwrs-workloads` | stream generators incl. the lower-bound hard instances |
//! | [`apps`] | `dwrs-apps` | residual heavy hitters (Thm. 4), L1 tracking (Thm. 6) + baselines, sliding-window extension |
//! | [`stats`] | `dwrs-stats` | chi-square / KS / TV validation toolkit, mergeable GK quantile sketch |
//! | [`telemetry`] | `dwrs-telemetry` | metrics registry (counters, gauges, sketch-backed histograms), trace rings, Prometheus/JSON exposition |
//! | [`load`] | `dwrs-load` | load/chaos harness against the live daemon: rate-controlled schedules, latency percentiles, seeded fault plans, post-run invariant battery |
//!
//! ## Quickstart
//!
//! One declarative [`Scenario`] runs on any engine (lockstep simulator,
//! OS threads, loopback TCP) in any topology (flat, fan-in tree), with
//! the workload streamed through a bounded dispatcher — O(batch × queue)
//! resident memory however long the stream:
//!
//! ```
//! use dwrs::runtime::RuntimeConfig;
//! use dwrs::{run_scenario, EngineKind, Scenario, Workload};
//!
//! // 4 sites (tasks on the site pool's worker threads), continuous
//! // weighted sample (without replacement) of size 8 over a streamed
//! // 10k-item weighted stream. The tight
//! // batch/queue keeps the feedback window small on this short stream
//! // (message counts grow with pipeline depth; see the README).
//! let scenario = Scenario::new(EngineKind::Threads, 4, 8)
//!     .with_n(10_000)
//!     .with_seed(42)
//!     .with_workload(Workload::Uniform { lo: 1.0, hi: 14.0 })
//!     .with_runtime(RuntimeConfig::new().with_batch_max(4).with_queue_capacity(4));
//! let report = run_scenario(&scenario).unwrap();
//!
//! assert_eq!(report.sample.len(), 8); // valid at *every* prefix, too
//! // Message-optimal: far fewer messages than stream items.
//! assert!(report.metrics.total() < 2_000);
//! // Accounting/sample invariants are checked on every run.
//! assert!(report.invariants_ok());
//! ```
//!
//! See `examples/` for full scenarios and `crates/bench` for the experiment
//! harness regenerating the paper's tables (README.md, "Experiments and
//! benchmarks").

pub use dwrs_apps as apps;
pub use dwrs_core as core;
pub use dwrs_load as load;
pub use dwrs_runtime as runtime;
pub use dwrs_sim as sim;
pub use dwrs_stats as stats;
pub use dwrs_telemetry as telemetry;
pub use dwrs_workloads as workloads;

pub use dwrs_runtime::{
    run_scenario, EngineKind, Query, QueryAnswer, RunReport, Scenario, Topology, Workload,
};

/// Crate version of the facade.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");
