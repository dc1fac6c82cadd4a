//! # dwrs-telemetry
//!
//! Observability layer for the dwrs runtime: a lock-cheap metrics
//! [`Registry`] (atomic counters and gauges, sketch-backed ε-approximate
//! histograms), fixed-capacity [`TraceRing`]s of structured events, and
//! exposition rendering (Prometheus text / JSON) for the daemon's
//! `TAG_METRICS` control frame.
//!
//! Recorders resolve each metric once into an `Arc` handle and then touch
//! only relaxed atomics (or, for a histogram, one short mutex per
//! observation). A scrape reads the same atomics and mutexes — it never
//! stalls the data plane.
//!
//! There is no process-wide instance: each owner (a daemon) creates its
//! own [`Telemetry`] and records into it, so two owners in one process
//! never mix their series. Batch engine runs report through their
//! `RunReport` instead.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod names;
pub mod registry;
pub mod render;
pub mod trace;

pub use names::*;
pub use registry::{summarize, Counter, Gauge, Histogram, Registry, HISTOGRAM_EPS};
pub use render::{render_json, render_prometheus};
pub use trace::{event_name, TraceKind, TraceRing, DEFAULT_RING_CAPACITY};

use std::time::Instant;

/// One owner's telemetry: the registry, the owner-level trace ring, and
/// the monotonic epoch every nanosecond timestamp is relative to.
#[derive(Debug)]
pub struct Telemetry {
    /// The metric registry.
    pub registry: Registry,
    /// Owner-level events (connections, ctrl errors, shutdown).
    pub trace: TraceRing,
    epoch: Instant,
}

impl Telemetry {
    /// A fresh telemetry instance with its own epoch.
    pub fn new() -> Self {
        let epoch = Instant::now();
        Self {
            registry: Registry::new(),
            trace: TraceRing::with_epoch(DEFAULT_RING_CAPACITY, epoch),
            epoch,
        }
    }

    /// The monotonic epoch; share it with per-stream [`TraceRing`]s so
    /// all timestamps in one report are comparable.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Nanoseconds since the epoch.
    pub fn now_nanos(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_instances_are_isolated() {
        let t = Telemetry::new();
        t.registry.counter("x").add(5);
        let u = Telemetry::new();
        assert_eq!(u.registry.counter("x").get(), 0);
        assert_eq!(t.registry.counter("x").get(), 5);
    }
}
