//! The load runner: writers, query workers, chaos controller, and the
//! post-run invariant verdict.
//!
//! One [`run_load`] call is a complete experiment: create (or join) a
//! daemon, attach N paced writers, interleave M query workers, execute
//! the seeded fault plan, then drain and *assert* — mid-outage snapshots
//! must be contained in the final sample, watermarks must never move
//! backwards, estimates must sit inside their envelopes. The returned
//! [`LoadReport`] carries the measurements and the violation list; an
//! empty list is the pass verdict CI gates on.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

use dwrs_apps::L1Site;
use dwrs_core::ctrl::{CtrlResp, LiveQueryKind, LiveSnapshot};
use dwrs_core::framed::FrameCodec;
use dwrs_core::merge::merge_two;
use dwrs_core::swor::SworConfig;
use dwrs_core::Item;
use dwrs_runtime::query::{l1_site_seed, Query};
use dwrs_runtime::{
    AttachClient, CtrlClient, Daemon, DaemonConfig, RetryPolicy, RuntimeConfig, RuntimeError,
};
use dwrs_sim::SiteNode;
use dwrs_stats::QuantileSketch;
use dwrs_telemetry::HISTOGRAM_EPS;

use crate::pacer::SchedulePacer;
use crate::plan::{Fault, FaultAction, FaultPlan};
use crate::report::{ChaosEvent, LatencySummary, LoadReport};
use crate::schedule::{Schedule, HOT_WEIGHT};

/// Items a writer generates per feed call: large enough to amortize the
/// per-call bookkeeping, small enough that fault triggers and pacing
/// stay responsive at any rate.
pub const FEED_CHUNK: u64 = 1024;

/// Milliseconds between the runner's own telemetry scrapes while writers
/// feed.
pub const SCRAPE_EVERY_MS: u64 = 25;

/// Chaos settings for a load run.
#[derive(Clone, Copy, Debug)]
pub struct ChaosConfig {
    /// Faults to plan (round-robin across writers; actions cycle
    /// kill-clean → kill-drop → pause). See [`FaultPlan::generate`].
    pub faults: usize,
}

/// Everything [`run_load`] needs to know.
#[derive(Clone, Debug)]
pub struct LoadConfig {
    /// Daemon control address to drive, or `None` to spin up an
    /// in-process daemon on a loopback port for the run's duration.
    pub connect: Option<String>,
    /// Stream name to create and drive. Must not already exist with
    /// finished slots (slots are single-use after Eof).
    pub stream: String,
    /// Writer workers — one per site slot, so this is also `k`.
    pub writers: usize,
    /// Base sample size `s` (the query may derive a larger effective
    /// size).
    pub s: usize,
    /// Application query spec for the stream (`swor`, `l1:0.2,0.25`,
    /// `rhh:0.1`, …).
    pub query: String,
    /// Target mean rate in items/s, summed across all writers.
    pub rate: u64,
    /// Total items to feed, split evenly across writers.
    pub n: u64,
    /// Rate shape over time.
    pub schedule: Schedule,
    /// Concurrent query workers issuing live queries and scrapes (0 =
    /// none).
    pub query_workers: usize,
    /// Fault plan settings; `None` = chaos off.
    pub chaos: Option<ChaosConfig>,
    /// Seed for the fault plan, hot-key assignment, and site RNGs.
    pub seed: u64,
    /// Runtime knobs for the attach clients (batching).
    pub runtime: RuntimeConfig,
    /// Reattach backoff policy used by writers (initial attach and
    /// failover).
    pub retry: RetryPolicy,
}

impl LoadConfig {
    /// A small, fast default run against an in-process daemon: 4 writers
    /// at 50k items/s steady for 100k items, 2 query workers, chaos off.
    pub fn new(stream: &str) -> LoadConfig {
        LoadConfig {
            connect: None,
            stream: stream.to_string(),
            writers: 4,
            s: 64,
            query: "swor".into(),
            rate: 50_000,
            n: 100_000,
            schedule: Schedule::Steady,
            query_workers: 2,
            chaos: None,
            seed: 1,
            runtime: RuntimeConfig::default(),
            retry: RetryPolicy::default(),
        }
    }

    fn validate(&self) -> Result<(), RuntimeError> {
        let fail = |m: String| Err(RuntimeError::InvalidScenario(m));
        if self.writers == 0 {
            return fail("load needs at least one writer".into());
        }
        if self.rate == 0 {
            return fail("load rate must be positive".into());
        }
        if self.n < self.writers as u64 {
            return fail(format!(
                "load n = {} is smaller than the writer count {}",
                self.n, self.writers
            ));
        }
        if self.s == 0 {
            return fail("sample size s must be positive".into());
        }
        if self.stream.is_empty() {
            return fail("stream name must be non-empty".into());
        }
        self.schedule
            .validate()
            .map_err(RuntimeError::InvalidScenario)?;
        if let Some(chaos) = self.chaos {
            if chaos.faults == 0 {
                return fail("chaos needs at least one fault".into());
            }
        }
        Ok(())
    }
}

/// A writer telling the chaos controller it is executing a fault: the
/// controller dwells, snapshots the stream mid-outage, then acks with
/// the snapshot's items watermark.
struct FaultHit {
    dwell_ms: u64,
    reply: mpsc::Sender<u64>,
}

/// What one writer hands back.
struct WriterOutcome {
    fed: u64,
    events: Vec<ChaosEvent>,
    /// Its feed window: from its pacer's time zero, just before its first
    /// feed, to the end of its last feed.
    window: (Instant, Instant),
}

/// The writers' joint feed window, from the earliest start to the latest
/// end. Attach handshakes, `finish` and the runner's scrape cadence fall
/// outside it, so a rate over it measures the pacers alone.
fn feed_window(windows: &[(Instant, Instant)]) -> Duration {
    let start = windows.iter().map(|w| w.0).min();
    let end = windows.iter().map(|w| w.1).max();
    match (start, end) {
        (Some(start), Some(end)) => end.saturating_duration_since(start),
        _ => Duration::ZERO,
    }
}

/// What one query worker hands back.
struct QueryOutcome {
    queries: u64,
    scrapes: u64,
    errors: u64,
    sketch: QuantileSketch,
    violations: Vec<String>,
}

/// Runs the whole experiment and returns the report. Errors are reserved
/// for setup failures (bad config, daemon unreachable, stream refused);
/// anything that goes wrong *during* the run — writer failures, query
/// errors, invariant violations — lands in the report's `violations` so
/// the run always produces a row.
pub fn run_load(cfg: &LoadConfig) -> Result<LoadReport, RuntimeError> {
    cfg.validate()?;
    let query = Query::parse(&cfg.query).map_err(RuntimeError::InvalidScenario)?;
    let s_eff = query.sample_size(cfg.s);

    // Daemon: join the given one or run our own for the experiment.
    let own = match &cfg.connect {
        Some(_) => None,
        None => Some(
            Daemon::bind("127.0.0.1:0", DaemonConfig::default())
                .map_err(|e| RuntimeError::Transport(e.to_string()))?,
        ),
    };
    let addr = match (&cfg.connect, &own) {
        (Some(a), _) => a.clone(),
        (None, Some(d)) => d.local_addr().to_string(),
        _ => unreachable!(),
    };

    let mut ctrl =
        CtrlClient::connect(addr.as_str()).map_err(|e| RuntimeError::Transport(e.to_string()))?;
    if let CtrlResp::Err { msg } = ctrl
        .create(&cfg.stream, cfg.writers as u32, cfg.s as u32, &cfg.query)
        .map_err(|e| RuntimeError::Transport(e.to_string()))?
    {
        return Err(RuntimeError::Transport(format!("create refused: {msg}")));
    }

    let per_site = cfg.n / cfg.writers as u64;
    let plan = cfg
        .chaos
        .map(|c| FaultPlan::generate(cfg.seed, cfg.writers, per_site, c.faults));

    // Chaos controller: serializes mid-outage snapshots over its own
    // control connection and acks each fault after its dwell.
    let (fault_tx, controller) = match &plan {
        None => (None, None),
        Some(_) => {
            let (tx, rx) = mpsc::channel::<FaultHit>();
            let caddr = addr.clone();
            let cstream = cfg.stream.clone();
            let handle = thread::spawn(move || chaos_controller(&caddr, &cstream, rx));
            (Some(tx), Some(handle))
        }
    };

    // Query workers.
    let stop = Arc::new(AtomicBool::new(false));
    let query_handles: Vec<_> = (0..cfg.query_workers)
        .map(|w| {
            let qaddr = addr.clone();
            let qstream = cfg.stream.clone();
            let qstop = Arc::clone(&stop);
            thread::spawn(move || query_worker(&qaddr, &qstream, w, &qstop))
        })
        .collect();

    // Writers: monomorphized per site-node type, exactly as `dwrs attach`
    // chooses nodes.
    let t0 = Instant::now();
    let writer_handles: Vec<_> = (0..cfg.writers)
        .map(|site| {
            let w = WriterSetup {
                addr: addr.clone(),
                stream: cfg.stream.clone(),
                site,
                k: cfg.writers,
                per_site: per_site
                    + if site == 0 {
                        cfg.n % cfg.writers as u64
                    } else {
                        0
                    },
                pacer: SchedulePacer::new(
                    per_writer_rate(cfg.rate, cfg.writers, site),
                    cfg.schedule.clone(),
                ),
                hot_pct: cfg.schedule.hot_pct(),
                seed: cfg.seed,
                faults: plan.as_ref().map(|p| p.for_site(site)).unwrap_or_default(),
                fault_tx: fault_tx.clone(),
                rcfg: cfg.runtime,
                retry: RetryPolicy {
                    jitter_seed: cfg.seed ^ site as u64,
                    ..cfg.retry
                },
            };
            match query {
                Query::L1 { .. } => {
                    let ell = query.duplication().expect("l1 has a duplication factor");
                    let seed = cfg.seed;
                    thread::spawn(move || {
                        let mk = |inc: u64| {
                            L1Site::new(
                                &SworConfig::new(s_eff, w.k),
                                ell,
                                l1_site_seed(derive_seed(seed, inc), w.site),
                            )
                        };
                        writer_loop(&w, mk)
                    })
                }
                _ => {
                    let seed = cfg.seed;
                    thread::spawn(move || {
                        let mk = |inc: u64| {
                            dwrs_sim::swor_site(
                                &SworConfig::new(s_eff, w.k),
                                derive_seed(seed, inc),
                                w.site,
                            )
                        };
                        writer_loop(&w, mk)
                    })
                }
            }
        })
        .collect();
    drop(fault_tx);

    // The runner's own scrape loop doubles as the watermark monitor: the
    // per-stream items counter and the report clock must never move
    // backwards across consecutive scrapes.
    let mut violations: Vec<String> = Vec::new();
    let mut scrapes = 0u64;
    let mut last_clock = 0u64;
    let mut last_items = 0u64;
    while !writer_handles.iter().all(|h| h.is_finished()) {
        thread::sleep(Duration::from_millis(SCRAPE_EVERY_MS));
        match ctrl.metrics(0) {
            Err(e) => violations.push(format!("runner scrape failed: {e}")),
            Ok(report) => {
                scrapes += 1;
                if report.now_nanos < last_clock {
                    violations.push(format!(
                        "scrape clock moved backwards: {} after {}",
                        report.now_nanos, last_clock
                    ));
                }
                last_clock = report.now_nanos;
                if let Some(sm) = report.streams.iter().find(|s| s.stream == cfg.stream) {
                    if sm.items < last_items {
                        violations.push(format!(
                            "stream watermark moved backwards: {} after {}",
                            sm.items, last_items
                        ));
                    }
                    last_items = sm.items;
                }
            }
        }
    }
    let elapsed = t0.elapsed();

    let mut fed = 0u64;
    let mut events: Vec<ChaosEvent> = Vec::new();
    let mut windows = Vec::with_capacity(cfg.writers);
    for (site, handle) in writer_handles.into_iter().enumerate() {
        match handle.join() {
            Err(_) => violations.push(format!("writer {site} panicked")),
            Ok(Err(e)) => violations.push(format!("writer {site} failed: {e}")),
            Ok(Ok(outcome)) => {
                fed += outcome.fed;
                events.extend(outcome.events);
                windows.push(outcome.window);
            }
        }
    }
    events.sort_by_key(|e| (e.site, e.at_items));
    // ordering: Relaxed — pure quiescence signal: the query workers only
    // ever exit their loop on it, and their results are collected through
    // `join`, which provides the real happens-before edge.
    stop.store(true, Ordering::Relaxed);
    let mut queries = 0u64;
    let mut query_errors = 0u64;
    let mut sketches: Vec<QuantileSketch> = Vec::new();
    for handle in query_handles {
        match handle.join() {
            Err(_) => violations.push("query worker panicked".into()),
            Ok(outcome) => {
                queries += outcome.queries;
                scrapes += outcome.scrapes;
                query_errors += outcome.errors;
                violations.extend(outcome.violations);
                sketches.push(outcome.sketch);
            }
        }
    }
    let mid_snapshots = match controller {
        None => Vec::new(),
        Some(handle) => match handle.join() {
            Err(_) => {
                violations.push("chaos controller panicked".into());
                Vec::new()
            }
            Ok((snaps, errors)) => {
                query_errors += errors;
                snaps
            }
        },
    };

    // Final answers, then drain (drain removes the stream).
    let fin = ctrl.snapshot(&cfg.stream, LiveQueryKind::CurrentSample, 0)?;
    let l1 = ctrl.snapshot(&cfg.stream, LiveQueryKind::L1Now, 0)?;
    let rhh = ctrl.snapshot(&cfg.stream, LiveQueryKind::RhhSoFar, 0)?;
    let drained = ctrl.drain_stream(&cfg.stream)?;
    check_invariants(CheckInputs {
        cfg,
        s_eff,
        fed,
        events: &events,
        mid_snapshots: &mid_snapshots,
        fin: &fin,
        l1: &l1,
        rhh: &rhh,
        drained: &drained,
        violations: &mut violations,
    });
    if let Some(d) = own {
        d.shutdown();
    }

    let delivered = drained.items;
    let elapsed_s = elapsed.as_secs_f64();
    let feed_s = feed_window(&windows).as_secs_f64();
    let achieved_rate = if feed_s > 0.0 {
        fed as f64 / feed_s
    } else {
        0.0
    };
    let rate_error_pct = (achieved_rate - cfg.rate as f64) / cfg.rate as f64 * 100.0;
    // The rate accuracy bar applies when nothing intentionally distorts
    // wall time: chaos dwells pause feeding, and shaped schedules only
    // integrate to the mean over *full* periods.
    let flat_rate = matches!(cfg.schedule, Schedule::Steady | Schedule::HotKey { .. });
    if cfg.chaos.is_none() && flat_rate && rate_error_pct.abs() > 5.0 {
        violations.push(format!(
            "achieved rate {achieved_rate:.0} items/s is {rate_error_pct:+.2}% from the \
             {} items/s target (tolerance ±5%)",
            cfg.rate
        ));
    }

    let latency = summarize_latency(&sketches);
    Ok(LoadReport {
        schedule: schedule_spec(&cfg.schedule),
        rate: cfg.rate,
        chaos: cfg.chaos.is_some(),
        seed: cfg.seed,
        writers: cfg.writers,
        query_workers: cfg.query_workers,
        n: cfg.n,
        fed,
        delivered,
        elapsed_s,
        achieved_rate,
        rate_error_pct,
        queries,
        scrapes,
        query_errors,
        latency,
        events,
        violations,
    })
}

/// The writer's share of the total rate; the remainder goes to the first
/// sites so the shares sum exactly to the target.
fn per_writer_rate(rate: u64, writers: usize, site: usize) -> u64 {
    let base = rate / writers as u64;
    let extra = u64::from((site as u64) < rate % writers as u64);
    (base + extra).max(1)
}

/// Derives the site-RNG seed for a writer incarnation: incarnation 0 is
/// the base seed, each kill-drop restart gets a fresh independent one
/// (the crashed incarnation's generator position is lost by design).
fn derive_seed(seed: u64, incarnation: u64) -> u64 {
    seed.wrapping_add(incarnation.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Renders a schedule back into its canonical `--schedule` spec.
fn schedule_spec(s: &Schedule) -> String {
    match *s {
        Schedule::Steady => "steady".into(),
        Schedule::Bursty {
            period_ms,
            duty_pct,
            burst,
        } => format!("bursty:{period_ms},{duty_pct},{burst}"),
        Schedule::Diurnal { period_ms, amp } => format!("diurnal:{period_ms},{amp}"),
        Schedule::HotKey { hot_pct } => format!("hotkey:{hot_pct}"),
    }
}

struct WriterSetup {
    addr: String,
    stream: String,
    site: usize,
    k: usize,
    per_site: u64,
    pacer: SchedulePacer,
    hot_pct: Option<u32>,
    seed: u64,
    faults: Vec<Fault>,
    fault_tx: Option<mpsc::Sender<FaultHit>>,
    rcfg: RuntimeConfig,
    retry: RetryPolicy,
}

/// One writer: attach, feed at the paced rate, execute this site's
/// faults at their fed-watermark triggers, finish with Eof.
fn writer_loop<S, F>(w: &WriterSetup, make_site: F) -> Result<WriterOutcome, RuntimeError>
where
    S: SiteNode + Send + 'static,
    S::Up: FrameCodec + Send + 'static,
    S::Down: FrameCodec + Send + 'static,
    F: Fn(u64) -> S,
{
    let mut incarnation = 0u64;
    let (client, _) = AttachClient::attach_with_retry(
        w.addr.as_str(),
        &w.stream,
        w.site,
        make_site(incarnation),
        &w.rcfg,
        &w.retry,
    )?;
    let mut link = Some(client);
    let mut events = Vec::new();
    let mut fed = 0u64;
    let mut fault_ix = 0;
    let mut buf: Vec<Item> = Vec::with_capacity(FEED_CHUNK as usize);
    let started = Instant::now();
    let mut last_feed = started;
    while fed < w.per_site {
        if fault_ix < w.faults.len() && fed >= w.faults[fault_ix].at_items {
            let fault = w.faults[fault_ix];
            fault_ix += 1;
            let site_back = match fault.action {
                FaultAction::Pause => None,
                FaultAction::KillClean => {
                    let (site, _) = link.take().expect("link live").detach()?;
                    Some(site)
                }
                FaultAction::KillDrop => {
                    // No close handshake: the socket dies abruptly and
                    // whatever was batched but unflushed dies with it.
                    drop(link.take().expect("link live").abort());
                    incarnation += 1;
                    None
                }
            };
            // Hand the outage to the controller; it dwells, snapshots the
            // stream while this site is down, and acks with the watermark.
            let snapshot_items = match &w.fault_tx {
                None => 0,
                Some(tx) => {
                    let (reply_tx, reply_rx) = mpsc::channel();
                    let hit = FaultHit {
                        dwell_ms: fault.dwell_ms,
                        reply: reply_tx,
                    };
                    if tx.send(hit).is_ok() {
                        reply_rx.recv().unwrap_or(0)
                    } else {
                        0
                    }
                }
            };
            let mut retries = 0;
            if link.is_none() {
                let site = site_back.unwrap_or_else(|| make_site(incarnation));
                let (client, r) = AttachClient::attach_with_retry(
                    w.addr.as_str(),
                    &w.stream,
                    w.site,
                    site,
                    &w.rcfg,
                    &w.retry,
                )?;
                retries = r;
                link = Some(client);
            }
            events.push(ChaosEvent {
                site: w.site,
                action: fault.action,
                at_items: fault.at_items,
                dwell_ms: fault.dwell_ms,
                snapshot_items,
                retries,
            });
            continue;
        }
        let due = w.pacer.due_by(started.elapsed()).min(w.per_site);
        if due <= fed {
            let hint = w
                .pacer
                .sleep_hint(fed, started.elapsed())
                .clamp(Duration::from_micros(50), Duration::from_millis(5));
            thread::sleep(hint);
            continue;
        }
        let stop_at = if fault_ix < w.faults.len() {
            w.faults[fault_ix].at_items.min(w.per_site)
        } else {
            w.per_site
        };
        let take = (due - fed).min(stop_at.saturating_sub(fed)).min(FEED_CHUNK);
        if take == 0 {
            // Parked exactly on a fault trigger; handled at the loop top.
            continue;
        }
        buf.clear();
        for t in fed..fed + take {
            buf.push(make_item(w, t));
        }
        link.as_mut().expect("link live").feed(buf.drain(..))?;
        fed += take;
        last_feed = Instant::now();
    }
    link.take().expect("link live").finish()?;
    Ok(WriterOutcome {
        fed,
        events,
        window: (started, last_feed),
    })
}

/// The deterministic item for per-writer index `t`: globally unique id
/// `t·k + site` (writers interleave the id space), unit weight — unless
/// the hot-key schedule marks it heavy via a seeded hash.
fn make_item(w: &WriterSetup, t: u64) -> Item {
    let id = t * w.k as u64 + w.site as u64;
    let weight = match w.hot_pct {
        Some(pct) if splitmix(w.seed ^ id) % 100 < u64::from(pct) => HOT_WEIGHT,
        _ => 1.0,
    };
    Item::new(id, weight)
}

fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The chaos controller body: for every fault a writer reports, dwell,
/// snapshot the stream mid-outage (the snapshot that must later be
/// contained in the final sample), and ack the writer so it reattaches.
/// Ends when every writer has dropped its sender. Returns the collected
/// snapshots and the snapshot attempts that failed.
fn chaos_controller(
    addr: &str,
    stream: &str,
    rx: mpsc::Receiver<FaultHit>,
) -> (Vec<LiveSnapshot>, u64) {
    let mut ctrl = CtrlClient::connect(addr).ok();
    let mut snaps = Vec::new();
    let mut errors = 0u64;
    while let Ok(hit) = rx.recv() {
        thread::sleep(Duration::from_millis(hit.dwell_ms));
        let items = match ctrl
            .as_mut()
            .map(|c| c.snapshot(stream, LiveQueryKind::CurrentSample, 0))
        {
            Some(Ok(snap)) => {
                let items = snap.items;
                snaps.push(snap);
                items
            }
            _ => {
                errors += 1;
                0
            }
        };
        let _ = hit.reply.send(items);
    }
    (snaps, errors)
}

/// One query worker: rotates live query kinds over its own control
/// connection, folds each response latency into its private sketch, and
/// checks that the items watermark it observes never moves backwards.
fn query_worker(addr: &str, stream: &str, worker: usize, stop: &AtomicBool) -> QueryOutcome {
    let mut outcome = QueryOutcome {
        queries: 0,
        scrapes: 0,
        errors: 0,
        sketch: QuantileSketch::new(HISTOGRAM_EPS),
        violations: Vec::new(),
    };
    let mut ctrl = match CtrlClient::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            outcome
                .violations
                .push(format!("query worker {worker} could not connect: {e}"));
            return outcome;
        }
    };
    let kinds = [
        LiveQueryKind::CurrentSample,
        LiveQueryKind::Stats,
        LiveQueryKind::L1Now,
        LiveQueryKind::RhhSoFar,
    ];
    let mut last_items = 0u64;
    let mut round = worker;
    // ordering: Relaxed — quiescence poll; seeing the stop flag one
    // iteration late only runs one more harmless query, and the worker's
    // outcome is handed back via `join`, not through this flag.
    while !stop.load(Ordering::Relaxed) {
        let t0 = Instant::now();
        // Every 8th request is a telemetry scrape instead of a query, so
        // both control paths stay under measurement.
        let items = if round % 8 == 7 {
            match ctrl.metrics(0) {
                Err(_) => None,
                Ok(report) => {
                    outcome.scrapes += 1;
                    report
                        .streams
                        .iter()
                        .find(|s| s.stream == stream)
                        .map(|s| s.items)
                }
            }
        } else {
            match ctrl.snapshot(stream, kinds[round % kinds.len()], 0) {
                Err(_) => None,
                Ok(snap) => {
                    outcome.queries += 1;
                    Some(snap.items)
                }
            }
        };
        match items {
            None => outcome.errors += 1,
            Some(items) => {
                outcome.sketch.observe(t0.elapsed().as_micros() as f64);
                if items < last_items {
                    outcome.violations.push(format!(
                        "query worker {worker} saw the watermark move backwards: \
                         {items} after {last_items}"
                    ));
                }
                last_items = items;
            }
        }
        round += 1;
        thread::sleep(Duration::from_micros(300));
    }
    outcome
}

/// Pools the per-worker sketches and extracts the percentile summary.
fn summarize_latency(sketches: &[QuantileSketch]) -> Option<LatencySummary> {
    if sketches.is_empty() {
        return None;
    }
    let mut pooled = QuantileSketch::merge_all(HISTOGRAM_EPS, sketches);
    if pooled.is_empty() {
        return None;
    }
    Some(LatencySummary {
        count: pooled.count(),
        p50_us: pooled.query(0.50).unwrap_or(0.0),
        p90_us: pooled.query(0.90).unwrap_or(0.0),
        p99_us: pooled.query(0.99).unwrap_or(0.0),
        max_us: pooled.max().unwrap_or(0.0),
    })
}

struct CheckInputs<'a> {
    cfg: &'a LoadConfig,
    s_eff: usize,
    fed: u64,
    events: &'a [ChaosEvent],
    mid_snapshots: &'a [LiveSnapshot],
    fin: &'a LiveSnapshot,
    l1: &'a LiveSnapshot,
    rhh: &'a LiveSnapshot,
    drained: &'a LiveSnapshot,
    violations: &'a mut Vec<String>,
}

/// The post-run invariant battery. Every check here is a consequence of
/// the paper's validity guarantee or the daemon's delivery contract — a
/// failure means the system, not the workload, misbehaved.
fn check_invariants(inp: CheckInputs<'_>) {
    let v = inp.violations;
    let fin = inp.fin;

    // Watermark accounting: the daemon can never deliver more than was
    // fed; with no kill-drop faults (nothing crashed mid-batch) it must
    // deliver exactly what was fed; and the drain snapshot agrees with
    // the final query.
    if fin.items > inp.fed {
        v.push(format!(
            "delivered watermark {} exceeds fed items {}",
            fin.items, inp.fed
        ));
    }
    let dropped = inp.events.iter().any(|e| e.action == FaultAction::KillDrop);
    if !dropped && fin.items != inp.fed {
        v.push(format!(
            "no connection was dropped, yet delivered {} != fed {}",
            fin.items, inp.fed
        ));
    }
    if inp.drained.items != fin.items {
        v.push(format!(
            "drain watermark {} disagrees with the final query's {}",
            inp.drained.items, fin.items
        ));
    }

    // Sample validity: the sample holds exactly min(s_eff, candidates)
    // entries, every key clears the threshold, and — the failover
    // invariant — merging any mid-outage snapshot into the final sample
    // surfaces nothing new: every mid entry either survived into the
    // final sample or was displaced by a key at most the final threshold.
    if fin.sample.len() > inp.s_eff {
        v.push(format!(
            "final sample holds {} entries, more than s_eff {}",
            fin.sample.len(),
            inp.s_eff
        ));
    }
    let unit_query = inp.cfg.query == "swor";
    if unit_query && fin.items >= inp.s_eff as u64 && fin.sample.len() != inp.s_eff {
        v.push(format!(
            "final sample holds {} entries, expected a full s_eff = {}",
            fin.sample.len(),
            inp.s_eff
        ));
    }
    for entry in &fin.sample {
        if fin.u > 0.0 && entry.key < fin.u {
            v.push(format!(
                "sample entry id {} key {:.6e} is below the threshold u {:.6e}",
                entry.item.id, entry.key, fin.u
            ));
            break;
        }
    }
    let fin_ids: std::collections::HashSet<u64> = fin.sample.iter().map(|e| e.item.id).collect();
    for (ix, mid) in inp.mid_snapshots.iter().enumerate() {
        if mid.items > fin.items {
            v.push(format!(
                "mid-outage snapshot {ix} watermark {} exceeds the final {}",
                mid.items, fin.items
            ));
        }
        let merged = merge_two(&mid.sample, &fin.sample, inp.s_eff);
        for entry in &merged {
            if !fin_ids.contains(&entry.item.id) {
                v.push(format!(
                    "containment broken: merging mid-outage snapshot {ix} surfaced id {} \
                     absent from the final sample",
                    entry.item.id
                ));
                break;
            }
        }
        for entry in &mid.sample {
            if !fin_ids.contains(&entry.item.id) && entry.key > fin.u {
                v.push(format!(
                    "containment broken: mid-outage id {} (key {:.6e}) vanished without a \
                     displacing key above u {:.6e}",
                    entry.item.id, entry.key, fin.u
                ));
                break;
            }
        }
    }

    // Estimate envelopes. The L1 estimate W̃ = s·u/ℓ concentrates within
    // O(1/√s) of the true weight; for unit weights the true weight IS the
    // watermark, so a loose 50% envelope (far outside the paper's bound
    // for s ≥ 64) still catches a broken threshold path. Hot-key runs
    // skip it: their true weight depends on which items were dropped.
    let unit_weights = inp.cfg.schedule.hot_pct().is_none();
    if unit_query && unit_weights && fin.items >= 4 * inp.s_eff as u64 && inp.l1.estimate > 0.0 {
        let rel = (inp.l1.estimate - fin.items as f64).abs() / fin.items as f64;
        if rel > 0.5 {
            v.push(format!(
                "L1 estimate {:.1} is {rel:.2}× away from the true weight {}",
                inp.l1.estimate, fin.items
            ));
        }
    }
    // Residual heavy hitters come back heaviest-first by contract.
    let weights: Vec<f64> = inp.rhh.sample.iter().map(|e| e.item.weight).collect();
    if weights.windows(2).any(|p| p[0] < p[1]) {
        v.push("rhh candidates are not ordered heaviest-first".into());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feed_window_spans_earliest_start_to_latest_end() {
        let t0 = Instant::now();
        let at = |ms| t0 + Duration::from_millis(ms);
        // Two writers whose attaches finished 3 ms apart: the window runs
        // from the first start to the last end, and nothing outside the
        // feeds (the handshakes before, `finish` after) counts.
        let windows = [(at(3), at(503)), (at(0), at(500))];
        assert_eq!(feed_window(&windows), Duration::from_millis(503));
        assert_eq!(feed_window(&windows[..1]), Duration::from_millis(500));
        // A writer that fed nothing has an empty window.
        assert_eq!(feed_window(&[(at(7), at(7))]), Duration::ZERO);
        assert_eq!(feed_window(&[]), Duration::ZERO);
    }
}
