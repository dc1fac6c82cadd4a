//! # dwrs-runtime
//!
//! A concurrent execution substrate for the PODS'19 site/coordinator
//! protocols: `k` sites and one coordinator run concurrently. Both
//! engines run the sites as tasks on one pool of worker threads (the
//! site scheduler in [`engine`]), a worker per core but at least four,
//! whatever `k` is, and the
//! coordinator on a thread of its own; they differ only in the sites'
//! link to it: in-process channels ([`run_threads`]) or loopback TCP
//! served by one reactor thread ([`run_epoll`]), the frames encoded by
//! the data-plane codec in [`tcp`] over the `swor::wire` payloads.
//! Multi-process deployments attach their sites to a long-lived
//! [`daemon`].
//!
//! Any [`dwrs_sim::SiteNode`] / [`dwrs_sim::CoordinatorNode`] pair runs
//! unmodified; the lockstep simulator remains the specification substrate,
//! this crate is the throughput substrate. The engine provides:
//!
//! * **per-site upstream batching** with a configurable flush threshold
//!   ([`RuntimeConfig::batch_max`]);
//! * **bounded backpressure** on the up path
//!   ([`RuntimeConfig::queue_capacity`] batches, counted as credits from
//!   a site's send until the coordinator takes the batch, on both
//!   engines) with an unbounded, eagerly drained down path — the
//!   combination that makes the bounded up path deadlock-free without a
//!   worker ever blocking on one site (see [`engine`]);
//! * **deterministic graceful shutdown**: flush → `Eof` → coordinator
//!   drain → down-link close → final sample extraction, with per-site
//!   [`dwrs_sim::Metrics`] merged into totals that follow the paper's
//!   accounting exactly as the lockstep runner's do;
//! * **panic-safe joins**: a crashing site (caught per task step) or
//!   coordinator thread surfaces as a [`RuntimeError`] instead of a hang.
//!
//! The concurrent engines are *not* round-synchronous: sites apply
//! coordinator broadcasts whenever they arrive, i.e. they run in the
//! delayed-delivery regime the protocols already tolerate (stale
//! thresholds cannot break correctness, only inflate message counts —
//! `tests/runtime_equivalence.rs` verifies the output distribution matches
//! the lockstep simulator's).
//!
//! Beyond the flat `k`-sites-one-coordinator deployment, the [`tree`]
//! module runs the **hierarchical fan-in topology**: groups of sites
//! against per-group aggregators, which periodically ship their mergeable
//! keyed samples to a root merger — single-threaded as the
//! [`LockstepTree`] specification, or concurrently on the same engines
//! (see [`run_tree_nodes`]).
//!
//! For continuous monitoring — the paper's actual setting — the
//! [`daemon`] module runs the coordinator as a **long-lived process**
//! hosting many concurrent named streams, with mid-run attach / detach /
//! reconnect and live queries answered while streams run (see
//! [`daemon::Daemon`] and [`daemon::AttachClient`]).
//!
//! All engine×topology combinations are unified behind the [`driver`]
//! layer: describe the run as a [`Scenario`] (protocol, engine, topology,
//! workload, seed, partition) and [`run_scenario`] streams the workload
//! through a bounded sharded dispatcher — O(batch × queue) resident
//! memory, never O(n) — returning a uniform [`RunReport`].
//!
//! A batch run reports through its [`RunReport`] alone: message and byte
//! counts, per-group sync stats and dispatcher stats, exact per run.
//! Each [`daemon::Daemon`] owns one `dwrs-telemetry` registry (counters,
//! gauges, a sketch-backed query-latency histogram) plus per-stream trace
//! rings, scrapeable live over the control socket (`CtrlMsg::Metrics`)
//! while streams run — see the Telemetry sections of `docs/DAEMON.md` and
//! `docs/ARCHITECTURE.md`.
//!
//! # Example
//!
//! ```
//! use dwrs_runtime::{run_scenario, EngineKind, Scenario, Workload};
//!
//! // 4 sites on the threaded engine, sample size 16, streaming 20k
//! // uniform-weight items: nothing is materialized.
//! let scenario = Scenario::new(EngineKind::Threads, 4, 16)
//!     .with_n(20_000)
//!     .with_workload(Workload::Uniform { lo: 1.0, hi: 10.0 });
//! let report = run_scenario(&scenario).unwrap();
//! assert_eq!(report.sample.len(), 16);
//! assert!(report.invariants_ok(), "{:?}", report.violations);
//! // Message-optimal even across threads: far fewer messages than items.
//! assert!(report.metrics.total() < 10_000);
//! // And the input side stayed bounded: the dispatch window is a small
//! // constant, independent of stream length.
//! let d = report.dispatcher.unwrap();
//! assert!(d.peak_in_flight_frames <= d.in_flight_bound());
//! ```

#![deny(missing_docs)]

pub mod config;
pub mod daemon;
pub mod driver;
pub mod engine;
pub mod epoll;
pub mod query;
pub mod reactor;
pub mod tcp;
pub mod transport;
pub mod tree;

pub use config::RuntimeConfig;
pub use daemon::{AttachClient, CtrlClient, Daemon, DaemonConfig, RetryPolicy};
pub use driver::{
    run_scenario, DispatcherStats, EngineKind, RunReport, Scenario, ShardSource, Topology, Workload,
};
pub use engine::{run_threads, Feed, ItemFeed, RunOutput, RuntimeError, VecFeed};
pub use epoll::{run_epoll, run_tree_epoll};
pub use query::{Query, QueryAnswer};
pub use reactor::raise_nofile_limit;
pub use transport::{BatchSender, DownSender, TransportError, UpFrame};
pub use tree::{run_tree_nodes, GroupStats, LockstepTree, SampleSource, TreeOutput, TreeTopology};
