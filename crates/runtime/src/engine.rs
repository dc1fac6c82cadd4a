//! The threaded execution engine.
//!
//! Each site runs its partition of the stream on its own OS thread; the
//! coordinator runs on another. Threads communicate only through a
//! [`crate::transport`] wiring of in-process channels. The coordinator
//! loop and the site loop's flush are shared with the epoll engine
//! ([`crate::epoll`]) and the fan-in tree ([`crate::tree`]).
//!
//! # Deadlock freedom
//!
//! The up path is bounded and blocking (backpressure); the down path is
//! unbounded and drained eagerly by sites (between items). Because the
//! coordinator never blocks sending down, it always returns to draining
//! the up queue, so blocked site `send`s always unblock. A cycle of
//! blocking sends — the classic site⇄coordinator deadlock — cannot form.
//!
//! # Graceful shutdown
//!
//! Deterministic three-phase drain:
//!
//! 1. a site exhausts its input, flushes its final partial batch, sends
//!    `Eof`, and **drops its up sender** (so a stuck sibling cannot wedge
//!    the coordinator's queue);
//! 2. the coordinator processes frames until every site has reported `Eof`
//!    (or every up sender is gone), then closes all down links;
//! 3. sites drain remaining downstream messages until their link closes,
//!    then return their final state and per-thread [`Metrics`].
//!
//! The engine then joins every thread — converting panics into
//! [`RuntimeError`]s instead of hangs — extracts the final weighted sample
//! state (the returned coordinator), and merges the per-thread metrics into
//! one [`Metrics`] whose totals follow the paper's accounting exactly as
//! the lockstep simulator's do.

use std::sync::mpsc;
use std::thread;

use dwrs_core::Item;
use dwrs_sim::{CoordinatorNode, Meter, Metrics, Outbox, SiteNode};

use crate::config::RuntimeConfig;
use crate::transport::{
    channel_wiring, CoordEndpoint, DownSender, SiteEndpoint, TransportError, UpFrame,
};

/// Why a runtime run failed.
#[derive(Debug)]
pub enum RuntimeError {
    /// A site thread panicked.
    SitePanicked(usize),
    /// The coordinator thread panicked.
    CoordinatorPanicked,
    /// A group-aggregator thread panicked (hierarchical topology).
    AggregatorPanicked(usize),
    /// The root-merger thread panicked (hierarchical topology).
    RootPanicked,
    /// A transport link failed (I/O error, malformed frame, premature
    /// disconnect).
    Transport(String),
    /// A [`crate::driver::Scenario`] failed validation (bad shape
    /// parameters, unresolvable workload source).
    InvalidScenario(String),
    /// The process (`EMFILE`) or system (`ENFILE`) file-descriptor table
    /// ran out while wiring or accepting connections. The engines raise
    /// the soft `RLIMIT_NOFILE` to the hard limit at start
    /// ([`crate::reactor::raise_nofile_limit`]); hitting this anyway
    /// means the hard limit itself is too low for the deployment's `k`.
    FdExhausted {
        /// What the engine was doing when the table ran out.
        what: String,
        /// The `RLIMIT_NOFILE` soft limit in effect at the failure.
        limit: u64,
    },
    /// Every attempt of a bounded
    /// [`crate::daemon::AttachClient::attach_with_retry`] failed; the
    /// slot could not be (re)claimed.
    ReattachExhausted {
        /// Attach attempts made before giving up.
        attempts: u32,
        /// The last attempt's failure, verbatim.
        last: String,
    },
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::SitePanicked(i) => write!(f, "site thread {i} panicked"),
            RuntimeError::CoordinatorPanicked => write!(f, "coordinator thread panicked"),
            RuntimeError::AggregatorPanicked(g) => {
                write!(f, "aggregator thread for group {g} panicked")
            }
            RuntimeError::RootPanicked => write!(f, "root merger thread panicked"),
            RuntimeError::Transport(e) => write!(f, "transport failure: {e}"),
            RuntimeError::InvalidScenario(e) => write!(f, "invalid scenario: {e}"),
            RuntimeError::FdExhausted { what, limit } => {
                write!(
                    f,
                    "file descriptors exhausted while {what} (RLIMIT_NOFILE soft limit = {limit})"
                )
            }
            RuntimeError::ReattachExhausted { attempts, last } => {
                write!(f, "reattach exhausted after {attempts} attempts: {last}")
            }
        }
    }
}

impl std::error::Error for RuntimeError {}

impl From<TransportError> for RuntimeError {
    fn from(e: TransportError) -> Self {
        RuntimeError::Transport(e.to_string())
    }
}

/// Everything a completed run hands back.
#[derive(Debug)]
pub struct RunOutput<S, C> {
    /// Final site states, in site order (each has seen every broadcast).
    pub sites: Vec<S>,
    /// Final coordinator state; query it for the weighted sample.
    pub coordinator: C,
    /// Merged per-thread metrics (coordinator first, then sites 0..k).
    pub metrics: Metrics,
}

/// Drives one site over its endpoint: returns the final site state and the
/// thread-local upstream metrics.
///
/// Downstream messages are applied in windows of `down_poll_every` items
/// ahead of `observe`, mirroring the lockstep runner's delayed-delivery
/// mode: the protocols tolerate stale thresholds by design (correctness is
/// unaffected; only message counts may inflate).
pub(crate) fn site_loop<S, I>(
    site: &mut S,
    endpoint: SiteEndpoint<S::Up, S::Down>,
    items: I,
    batch_max: usize,
    down_poll_every: u32,
) -> Result<Metrics, RuntimeError>
where
    S: SiteNode,
    I: IntoIterator<Item = Item>,
{
    let SiteEndpoint { mut up, down, .. } = endpoint;
    up.reserve_hint(batch_max);
    let down_poll_every = down_poll_every.max(1);
    let mut metrics = Metrics::new();
    let mut batch: Vec<S::Up> = Vec::with_capacity(batch_max);
    let mut items_pending = 0u64;
    let mut until_poll = 0u32;
    for item in items {
        if until_poll == 0 {
            until_poll = down_poll_every;
            while let Ok(msg) = down.try_recv() {
                site.receive(&msg);
            }
        }
        until_poll -= 1;
        site.observe(item, &mut batch);
        items_pending += 1;
        if batch.len() >= batch_max {
            flush(
                &mut *up,
                &mut batch,
                &mut items_pending,
                batch_max,
                &mut metrics,
            )?;
        }
    }
    // End-of-stream protocols assemble their closing messages here (e.g.
    // the sliding-window site ships its retained candidate set); per-item
    // protocols leave the batch untouched. The closing burst can exceed
    // `batch_max` (it is not item-driven), so ship it in batch-sized
    // chunks — a single oversized flush would overflow the framed
    // transport's MAX_FRAME_LEN cap.
    site.finish(&mut batch);
    while batch.len() > batch_max {
        let rest = batch.split_off(batch_max);
        flush(
            &mut *up,
            &mut batch,
            &mut items_pending,
            batch_max,
            &mut metrics,
        )?;
        batch = rest;
    }
    flush(
        &mut *up,
        &mut batch,
        &mut items_pending,
        batch_max,
        &mut metrics,
    )?;
    // The tail of the stream may have produced no messages; ship the
    // residual item count anyway so downstream watermarks (hierarchical
    // sync cadence) cover the whole stream before `Eof`.
    if items_pending > 0 {
        up.send(UpFrame::Batch {
            msgs: Vec::new(),
            items: items_pending,
        })?;
    }
    up.send(UpFrame::Eof)?;
    up.close();
    // Phase 1 complete: release the up sender so the coordinator's queue
    // disconnects even if a sibling site is stuck, then drain the down link
    // until the coordinator closes it (phase 3).
    drop(up);
    while let Ok(msg) = down.recv() {
        site.receive(&msg);
    }
    Ok(metrics)
}

/// Ships the accumulated batch together with the item count of its flush
/// window, metering each message by the paper's accounting (`units` wire
/// messages, exact `wire_bytes`). The batch vector is drained in place:
/// encoding transports keep its allocation alive across flushes; channel
/// transports move the storage with the messages, so capacity is restored
/// here for the next window.
pub(crate) fn flush<U: Meter>(
    up: &mut dyn crate::transport::BatchSender<U>,
    batch: &mut Vec<U>,
    items_pending: &mut u64,
    batch_max: usize,
    metrics: &mut Metrics,
) -> Result<(), TransportError> {
    if batch.is_empty() {
        return Ok(());
    }
    for msg in batch.iter() {
        metrics.count_up(msg.kind(), msg.units(), msg.wire_bytes());
    }
    let items = std::mem::take(items_pending);
    up.send_batch(batch, items)?;
    if batch.capacity() < batch_max {
        batch.reserve(batch_max - batch.len());
    }
    Ok(())
}

/// Drives the coordinator until every site reached `Eof` (or disconnected),
/// then closes the down links. Returns the thread-local downstream
/// metrics; the sites meter their own upstream traffic.
pub(crate) fn coordinator_loop<C>(
    node: &mut C,
    endpoint: CoordEndpoint<C::Up, C::Down>,
) -> Result<Metrics, RuntimeError>
where
    C: CoordinatorNode,
{
    let CoordEndpoint { up, mut downs } = endpoint;
    let k = downs.len();
    let mut metrics = Metrics::new();
    let mut outbox = Outbox::new();
    let mut done = 0usize;
    let mut fault: Option<String> = None;
    while done < k {
        match up.recv() {
            Ok((site, UpFrame::Batch { msgs, .. })) => {
                for msg in msgs {
                    node.receive(site, msg, &mut outbox);
                    route(&mut outbox, &mut downs, &mut metrics);
                }
            }
            Ok((_, UpFrame::Eof)) => done += 1,
            Ok((site, UpFrame::Fault(e))) => {
                fault.get_or_insert(format!("site {site}: {e}"));
                done += 1;
            }
            // All up senders dropped before k Eofs: a site died without its
            // Eof (e.g. panicked). End the run; the engine's joins surface
            // the precise cause.
            Err(mpsc::RecvError) => break,
        }
    }
    for d in &mut downs {
        d.close();
    }
    drop(downs);
    match fault {
        Some(e) => Err(RuntimeError::Transport(e)),
        None => Ok(metrics),
    }
}

/// Routes one round's coordinator responses, with the paper's accounting:
/// a unicast costs 1 message, a broadcast costs `k`. Shared with the
/// hierarchical aggregator loop in [`crate::tree`].
pub(crate) fn route<D: Meter>(
    outbox: &mut Outbox<D>,
    downs: &mut [Box<dyn DownSender<D>>],
    metrics: &mut Metrics,
) {
    let k = downs.len();
    let (unicasts, broadcasts) = outbox.take();
    for (to, msg) in unicasts {
        metrics.count_unicast(msg.kind(), msg.units(), msg.wire_bytes());
        // A closed link means that site already finished; the message is
        // metered (it was sent) but has no one left to act on it.
        let _ = downs[to].send(&msg);
    }
    for msg in broadcasts {
        metrics.count_broadcast(msg.kind(), msg.units(), msg.wire_bytes(), k);
        for d in downs.iter_mut() {
            let _ = d.send(&msg);
        }
    }
}

/// Runs a deployment on OS threads connected by in-process bounded
/// channels. Any [`SiteNode`]/[`CoordinatorNode`] pair from `dwrs-sim`
/// runs unmodified.
///
/// `streams[i]` is site `i`'s partition of the global stream, in that
/// site's arrival order — any streaming iterators (the scenario driver
/// passes its bounded shard queues).
pub fn run_threads<S, C, I>(
    sites: Vec<S>,
    mut coordinator: C,
    streams: Vec<I>,
    cfg: &RuntimeConfig,
) -> Result<RunOutput<S, C>, RuntimeError>
where
    S: SiteNode + Send,
    S::Up: Send + 'static,
    S::Down: Clone + Send + 'static,
    C: CoordinatorNode<Up = S::Up, Down = S::Down> + Send,
    I: IntoIterator<Item = Item> + Send,
{
    let k = sites.len();
    assert!(k >= 1, "need at least one site");
    assert_eq!(streams.len(), k, "one stream partition per site");
    let (site_eps, coord_ep) = channel_wiring(k, cfg.queue_capacity);
    let batch_max = cfg.batch_max.max(1);

    let (coord_res, site_res) = thread::scope(|scope| {
        let mut site_handles = Vec::with_capacity(k);
        let down_poll_every = cfg.down_poll_every.max(1);
        for ((mut site, ep), items) in sites.into_iter().zip(site_eps).zip(streams) {
            site_handles.push(scope.spawn(move || {
                let metrics = site_loop(&mut site, ep, items, batch_max, down_poll_every)?;
                Ok::<_, RuntimeError>((site, metrics))
            }));
        }
        let coord_handle = scope.spawn(move || {
            let metrics = coordinator_loop(&mut coordinator, coord_ep)?;
            Ok::<_, RuntimeError>((coordinator, metrics))
        });
        let site_res: Vec<_> = site_handles.into_iter().map(|h| h.join()).collect();
        (coord_handle.join(), site_res)
    });

    // Surface panics deterministically: first panicking site, then the
    // coordinator, then transport errors.
    for (i, res) in site_res.iter().enumerate() {
        if res.is_err() {
            return Err(RuntimeError::SitePanicked(i));
        }
    }
    let (coordinator, coord_metrics) =
        coord_res.map_err(|_| RuntimeError::CoordinatorPanicked)??;
    let mut metrics = coord_metrics;
    let mut final_sites = Vec::with_capacity(k);
    for res in site_res {
        let (site, site_metrics) = res.expect("panics handled above")?;
        metrics.merge(&site_metrics);
        final_sites.push(site);
    }
    Ok(RunOutput {
        sites: final_sites,
        coordinator,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dwrs_core::swor::{SworConfig, SworCoordinator, SworSite};
    use dwrs_sim::{swor_coordinator, swor_site};

    /// Toy protocol mirroring the lockstep runner's unit tests: sites
    /// forward every item; the coordinator broadcasts a counter every 3
    /// receipts.
    #[derive(Debug)]
    struct EchoSite {
        seen_down: u64,
    }
    #[derive(Clone, Copy, Debug, PartialEq)]
    struct Up(u64);
    #[derive(Clone, Copy, Debug, PartialEq)]
    struct Down(#[allow(dead_code)] u64);
    impl Meter for Up {
        fn kind(&self) -> &'static str {
            "up"
        }
    }
    impl Meter for Down {
        fn kind(&self) -> &'static str {
            "down"
        }
    }
    impl SiteNode for EchoSite {
        type Up = Up;
        type Down = Down;
        fn observe(&mut self, item: Item, out: &mut Vec<Up>) {
            out.push(Up(item.id));
        }
        fn receive(&mut self, _msg: &Down) {
            self.seen_down += 1;
        }
    }
    #[derive(Debug)]
    struct EchoCoord {
        received: u64,
    }
    impl CoordinatorNode for EchoCoord {
        type Up = Up;
        type Down = Down;
        fn receive(&mut self, _from: usize, _msg: Up, out: &mut Outbox<Down>) {
            self.received += 1;
            if self.received.is_multiple_of(3) {
                out.broadcast(Down(self.received));
            }
        }
    }

    /// Unit items `0..n`, item `i` on site `i % k`.
    fn parts(n: u64, k: usize) -> Vec<Vec<Item>> {
        (0..k as u64)
            .map(|site| (site..n).step_by(k).map(Item::unit).collect())
            .collect()
    }

    #[test]
    fn echo_protocol_full_accounting() {
        let sites = vec![EchoSite { seen_down: 0 }, EchoSite { seen_down: 0 }];
        let out = run_threads(
            sites,
            EchoCoord { received: 0 },
            parts(9, 2),
            &RuntimeConfig::default(),
        )
        .unwrap();
        assert_eq!(out.coordinator.received, 9);
        assert_eq!(out.metrics.up_total, 9);
        assert_eq!(out.metrics.down_total, 6, "3 broadcasts × 2 sites");
        assert_eq!(out.metrics.broadcast_events, 3);
        // Every broadcast is drained before the sites return.
        for s in &out.sites {
            assert_eq!(s.seen_down, 3);
        }
    }

    #[test]
    fn tiny_queue_and_batch_still_complete() {
        // queue_capacity 1 + batch_max 1 exercises the backpressure path on
        // every single message.
        let cfg = RuntimeConfig::new()
            .with_batch_max(1)
            .with_queue_capacity(1);
        let sites = (0..4).map(|_| EchoSite { seen_down: 0 }).collect();
        let out = run_threads(sites, EchoCoord { received: 0 }, parts(1000, 4), &cfg).unwrap();
        assert_eq!(out.coordinator.received, 1000);
        assert_eq!(out.metrics.up_total, 1000);
    }

    #[test]
    fn final_partial_batch_is_flushed() {
        let cfg = RuntimeConfig::new().with_batch_max(64);
        let sites = vec![EchoSite { seen_down: 0 }];
        // 7 items << batch_max: everything rides the end-of-stream flush.
        let out = run_threads(sites, EchoCoord { received: 0 }, parts(7, 1), &cfg).unwrap();
        assert_eq!(out.coordinator.received, 7);
    }

    /// Site whose entire output arrives at end-of-stream (the window
    /// sampler's shape): nothing per item, a burst from `finish`.
    #[derive(Debug)]
    struct FinisherSite {
        burst: u64,
    }
    impl SiteNode for FinisherSite {
        type Up = Up;
        type Down = Down;
        fn observe(&mut self, _item: Item, _out: &mut Vec<Up>) {}
        fn receive(&mut self, _msg: &Down) {}
        fn finish(&mut self, out: &mut Vec<Up>) {
            out.extend((0..self.burst).map(Up));
        }
    }

    #[test]
    fn finish_burst_larger_than_batch_max_is_chunked_through() {
        // Regression: the closing burst is not item-driven, so it can
        // exceed batch_max; it must be flushed in batch-sized chunks (a
        // single oversized flush would overflow a framed transport's
        // frame cap) and still arrive completely.
        let cfg = RuntimeConfig::new()
            .with_batch_max(8)
            .with_queue_capacity(2);
        let sites = vec![FinisherSite { burst: 100 }, FinisherSite { burst: 3 }];
        let out = run_threads(sites, EchoCoord { received: 0 }, parts(10, 2), &cfg).unwrap();
        assert_eq!(out.coordinator.received, 103);
        assert_eq!(out.metrics.up_total, 103);
    }

    #[derive(Debug)]
    struct PanickingSite;
    impl SiteNode for PanickingSite {
        type Up = Up;
        type Down = Down;
        fn observe(&mut self, item: Item, _out: &mut Vec<Up>) {
            if item.id == 3 {
                panic!("injected failure");
            }
        }
        fn receive(&mut self, _msg: &Down) {}
    }

    #[test]
    fn site_panic_reported_not_hung() {
        let sites = vec![PanickingSite, PanickingSite];
        let err = run_threads(
            sites,
            EchoCoord { received: 0 },
            parts(10, 2),
            &RuntimeConfig::default(),
        )
        .unwrap_err();
        // Under the (i % k) partition only site 1 ever sees id 3, so site 0
        // completes normally and the failure must be pinned to site 1.
        assert!(matches!(err, RuntimeError::SitePanicked(1)), "got {err:?}");
    }

    #[derive(Debug)]
    struct PanickingCoord;
    impl CoordinatorNode for PanickingCoord {
        type Up = Up;
        type Down = Down;
        fn receive(&mut self, _from: usize, msg: Up, _out: &mut Outbox<Down>) {
            if msg.0 >= 5 {
                panic!("injected coordinator failure");
            }
        }
    }

    #[test]
    fn coordinator_panic_reported_not_hung() {
        let sites = vec![EchoSite { seen_down: 0 }, EchoSite { seen_down: 0 }];
        let err = run_threads(
            sites,
            PanickingCoord,
            parts(100, 2),
            &RuntimeConfig::default(),
        )
        .unwrap_err();
        assert!(
            matches!(err, RuntimeError::CoordinatorPanicked),
            "got {err:?}"
        );
    }

    /// The weighted-SWOR deployment (seeded like the lockstep builders) on
    /// the threaded engine, item `i` of weight `1 + i % 7` on site `i % k`.
    fn swor_on_threads(
        n: u64,
        k: usize,
        cfg: &RuntimeConfig,
    ) -> RunOutput<SworSite, SworCoordinator> {
        let swor = SworConfig::new(8, k);
        let sites = (0..k).map(|i| swor_site(&swor, 42, i)).collect();
        let streams: Vec<Vec<Item>> = (0..k as u64)
            .map(|site| {
                (site..n)
                    .step_by(k)
                    .map(|i| Item::new(i, 1.0 + (i % 7) as f64))
                    .collect()
            })
            .collect();
        run_threads(sites, swor_coordinator(swor, 42), streams, cfg).unwrap()
    }

    #[test]
    fn swor_threads_byte_accounting_matches_frame_sizes() {
        let out = swor_on_threads(5000, 4, &RuntimeConfig::default());
        assert_eq!(out.coordinator.sample().len(), 8);
        assert!(out.metrics.up_total > 0);
        // The paper's byte accounting must hold after the per-thread merge.
        let m = &out.metrics;
        assert_eq!(
            m.up_bytes,
            17 * m.kind("early") + 25 * m.kind("regular"),
            "upstream bytes must match exact frame sizes"
        );
        assert_eq!(
            m.down_bytes,
            5 * m.kind("level_saturated") + 9 * m.kind("update_epoch"),
            "downstream bytes must match exact frame sizes"
        );
    }

    #[test]
    fn tight_pipeline_recovers_message_sublinearity() {
        // Threaded execution is the delayed-delivery regime: the message
        // bound degrades with the feedback window (pipeline depth =
        // queue_capacity × batch_max per site), never correctness. With a
        // pipeline much shorter than the stream, sites learn thresholds in
        // time and message counts stay strongly sublinear, as in lockstep.
        let n = 20_000u64;
        let rcfg = RuntimeConfig::new()
            .with_batch_max(4)
            .with_queue_capacity(4);
        let out = swor_on_threads(n, 4, &rcfg);
        assert_eq!(out.coordinator.sample().len(), 8);
        assert!(
            out.metrics.total() < n / 4,
            "expected sublinear traffic, got {} of n = {n}",
            out.metrics.total()
        );
        // And the deep-pipeline run on the same stream still answers with a
        // correct sample, just more traffic.
        let deep = swor_on_threads(n, 4, &RuntimeConfig::default());
        assert_eq!(deep.coordinator.sample().len(), 8);
    }
}
