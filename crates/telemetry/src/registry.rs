//! The lock-cheap metrics registry.
//!
//! Hot paths never touch the registry map: they look a metric up once
//! (getting an `Arc` handle) and then work on atomics. Counters and gauges
//! are single `AtomicU64`/`AtomicI64` cells with relaxed ordering — a
//! scrape is a statistical read, not a synchronization point. Histograms
//! wrap the mergeable [`QuantileSketch`] behind a mutex, taken once per
//! observation: fine at per-query rates, not for per-item producers.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use dwrs_core::ctrl::{HistSummary, MetricKind, MetricSample};
use dwrs_stats::QuantileSketch;

/// Rank-error tolerance for registry histograms: 1% is plenty for p50–p99
/// operational percentiles and keeps each sketch to a few KB.
pub const HISTOGRAM_EPS: f64 = 0.01;

/// A monotonically non-decreasing count.
#[derive(Debug, Default)]
pub struct Counter {
    v: AtomicU64,
}

impl Counter {
    /// Adds `n`.
    pub fn add(&self, n: u64) {
        // ordering: Relaxed — counters are statistics: increments from hot
        // paths must cost one uncontended RMW and nothing more. Exactness
        // comes from fetch_add atomicity, not from ordering.
        self.v.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        // ordering: Relaxed — scrape-time read; a reading that misses a
        // concurrent increment is indistinguishable from scraping a
        // moment earlier.
        self.v.load(Ordering::Relaxed)
    }
}

/// An instantaneous level that can move both ways.
#[derive(Debug, Default)]
pub struct Gauge {
    v: AtomicI64,
}

impl Gauge {
    /// Moves the level by `d` (may be negative).
    pub fn add(&self, d: i64) {
        // ordering: Relaxed — gauges carry no payload besides the value
        // itself; readers never infer other memory state from a level.
        self.v.fetch_add(d, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        // ordering: Relaxed — instantaneous scrape of a freestanding level.
        self.v.load(Ordering::Relaxed)
    }
}

/// An ε-approximate distribution backed by a [`QuantileSketch`].
#[derive(Debug)]
pub struct Histogram {
    sketch: Mutex<QuantileSketch>,
}

impl Histogram {
    fn new() -> Self {
        Self {
            sketch: Mutex::new(QuantileSketch::new(HISTOGRAM_EPS)),
        }
    }

    /// Records one observation. Takes the lock — fine for per-query
    /// rates.
    pub fn observe(&self, v: f64) {
        self.sketch.lock().expect("histogram poisoned").observe(v);
    }

    /// The current percentile digest; `None` while empty.
    pub fn summary(&self) -> Option<HistSummary> {
        summarize(&mut self.sketch.lock().expect("histogram poisoned"))
    }
}

/// Digests any sketch into the wire [`HistSummary`]; `None` while empty.
/// Shared by registry histograms, the daemon's per-stream latency sketches
/// and the CLI's client-side round-trip sketch.
pub fn summarize(sketch: &mut QuantileSketch) -> Option<HistSummary> {
    if sketch.is_empty() {
        return None;
    }
    Some(HistSummary {
        count: sketch.count(),
        p50: sketch.query(0.5).expect("non-empty"),
        p90: sketch.query(0.9).expect("non-empty"),
        p95: sketch.query(0.95).expect("non-empty"),
        p99: sketch.query(0.99).expect("non-empty"),
        max: sketch.max().expect("non-empty"),
    })
}

/// Named metrics, grouped by type. Lookup takes a short mutex on a
/// `BTreeMap`; handles are `Arc`s that hot paths cache outside their loops.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<&'static str, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<&'static str, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<&'static str, Arc<Histogram>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Gets or creates the counter `name`.
    pub fn counter(&self, name: &'static str) -> Arc<Counter> {
        Arc::clone(
            self.counters
                .lock()
                .expect("registry poisoned")
                .entry(name)
                .or_default(),
        )
    }

    /// Gets or creates the gauge `name`.
    pub fn gauge(&self, name: &'static str) -> Arc<Gauge> {
        Arc::clone(
            self.gauges
                .lock()
                .expect("registry poisoned")
                .entry(name)
                .or_default(),
        )
    }

    /// Gets or creates the histogram `name`.
    pub fn histogram(&self, name: &'static str) -> Arc<Histogram> {
        Arc::clone(
            self.histograms
                .lock()
                .expect("registry poisoned")
                .entry(name)
                .or_insert_with(|| Arc::new(Histogram::new())),
        )
    }

    /// Snapshots every registered metric as wire samples, sorted by name.
    pub fn snapshot(&self) -> Vec<MetricSample> {
        let mut out = Vec::new();
        for (name, c) in self.counters.lock().expect("registry poisoned").iter() {
            out.push(MetricSample {
                name: (*name).to_string(),
                kind: MetricKind::Counter,
                value: c.get() as f64,
                hist: None,
            });
        }
        for (name, g) in self.gauges.lock().expect("registry poisoned").iter() {
            out.push(MetricSample {
                name: (*name).to_string(),
                kind: MetricKind::Gauge,
                value: g.get() as f64,
                hist: None,
            });
        }
        for (name, h) in self.histograms.lock().expect("registry poisoned").iter() {
            let hist = h.summary();
            out.push(MetricSample {
                name: (*name).to_string(),
                kind: MetricKind::Histogram,
                value: hist.map(|s| s.count).unwrap_or(0) as f64,
                hist,
            });
        }
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_accumulate() {
        let r = Registry::new();
        let c = r.counter("c");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Same name → same cell.
        assert_eq!(r.counter("c").get(), 5);
        let g = r.gauge("g");
        g.add(7);
        g.add(-3);
        assert_eq!(r.gauge("g").get(), 4);
    }

    #[test]
    fn histogram_digest_and_local_merge() {
        // A plain sketch at `HISTOGRAM_EPS` (the daemon keeps one per
        // stream beside the registry histogram) digests like the registry
        // histogram, also when built from two merged halves.
        let r = Registry::new();
        let h = r.histogram("h");
        let mut halves = [
            QuantileSketch::new(HISTOGRAM_EPS),
            QuantileSketch::new(HISTOGRAM_EPS),
        ];
        for i in 1..=200 {
            h.observe(i as f64);
            halves[(i > 100) as usize].observe(i as f64);
        }
        let [mut local, upper] = halves;
        local.merge(&upper);
        let s = h.summary().expect("non-empty");
        let l = summarize(&mut local).expect("non-empty");
        assert_eq!((s.count, s.max), (200, 200.0));
        assert_eq!((l.count, l.max), (200, 200.0));
        for p50 in [s.p50, l.p50] {
            assert!((p50 - 100.0).abs() <= 200.0 * HISTOGRAM_EPS + 1.0);
        }
    }

    #[test]
    fn snapshot_is_sorted_and_typed() {
        let r = Registry::new();
        r.counter("b_count").inc();
        r.gauge("a_gauge").add(2);
        r.histogram("c_hist").observe(1.0);
        r.histogram("d_empty");
        let snap = r.snapshot();
        let names: Vec<&str> = snap.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["a_gauge", "b_count", "c_hist", "d_empty"]);
        assert_eq!(snap[0].kind, MetricKind::Gauge);
        assert_eq!(snap[1].kind, MetricKind::Counter);
        assert_eq!(snap[2].kind, MetricKind::Histogram);
        assert!(snap[2].hist.is_some());
        assert!(snap[3].hist.is_none(), "empty histogram has no digest");
        assert_eq!(snap[3].value, 0.0);
    }
}
