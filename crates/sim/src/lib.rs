//! # dwrs-sim
//!
//! Deterministic in-process simulator for the **continuous, distributed,
//! streaming model** of the paper (Section 2.1): `k` sites, one coordinator,
//! synchronous rounds, FIFO channels, no loss, adversarial partitioning of a
//! globally ordered stream.
//!
//! The paper's cost metric is the number of messages, which is a counting
//! property of the protocol and independent of physical transport — so an
//! exact simulator is the faithful substrate (see DESIGN.md §5). The
//! simulator meters every upstream message and charges each coordinator
//! broadcast `k` messages, exactly as the paper accounts them.
//!
//! Two delivery modes:
//!
//! * **instant** (default) — a site's message is processed by the
//!   coordinator and any response is visible to all sites within the same
//!   round, matching the paper's synchronous round model;
//! * **delayed** — coordinator responses take a configurable number of
//!   rounds to arrive, leaving sites with stale thresholds/saturation bits.
//!   Protocol correctness must be unaffected (only message counts may
//!   inflate); experiment E17 measures this.
//!
//! # Example
//!
//! ```
//! use dwrs_core::swor::SworConfig;
//! use dwrs_core::Item;
//! use dwrs_sim::{assign_sites, build_swor, Partition};
//!
//! let mut runner = build_swor(SworConfig::new(8, 4), 42);
//! let sites = assign_sites(Partition::Random, 4, 10_000, 7);
//! runner.run(
//!     sites
//!         .into_iter()
//!         .enumerate()
//!         .map(|(t, site)| (site, Item::new(t as u64, 1.0))),
//! );
//! assert_eq!(runner.coordinator.sample().len(), 8);
//! // The metrics mirror the paper's accounting (broadcasts cost k):
//! assert_eq!(
//!     runner.metrics.down_total,
//!     runner.metrics.broadcast_events * 4
//! );
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod adapters;
pub mod metrics;
pub mod partition;
pub mod protocol;
pub mod runner;

pub use adapters::{
    build_naive, build_swor, build_swor_faithful, build_swr, build_tag, swor_coordinator,
    swor_site, tree_group_seed, NoDown,
};
pub use metrics::Metrics;
pub use partition::{assign_sites, Partition, Partitioner};
pub use protocol::{CoordinatorNode, Meter, Outbox, SiteNode};
pub use runner::Runner;
