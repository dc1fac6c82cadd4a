//! The threaded execution engine.
//!
//! Each site runs its partition of the stream on its own OS thread; the
//! coordinator runs on another. Threads communicate only through a
//! [`crate::transport`] wiring of in-process channels. The coordinator
//! loop is shared with the epoll engine ([`crate::epoll`]) and the fan-in
//! tree ([`crate::tree`]), and every site driver (this engine's, the epoll
//! engine's site task and the daemon's attach client) runs its items
//! through one `SiteCore`.
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

use crate::config::{RuntimeConfig, PROMPT_FLUSH_MIN};
use crate::transport::{
    channel_wiring, BatchSender, CoordEndpoint, DownSender, SiteEndpoint, TransportError, UpFrame,
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

/// One site's half of the protocol, without its transport: the site, its
/// open batch, the items observed since the last frame, the down-poll
/// countdown and the up-path [`Metrics`]. Every site driver (the threads
/// engine's [`site_loop`], the epoll engine's site task and the daemon's
/// attach client) runs its items through one of these, so the rule for
/// when a batch ships lives here alone; each caller keeps only its up
/// sender and its down link.
pub(crate) struct SiteCore<S: SiteNode> {
    pub(crate) site: S,
    batch: Vec<S::Up>,
    items_pending: u64,
    until_poll: u32,
    down_poll_every: u32,
    batch_max: usize,
    pub(crate) metrics: Metrics,
}

impl<S: SiteNode> SiteCore<S> {
    /// Wraps `site`, with `batch_max` and `down_poll_every` clamped to at
    /// least 1.
    pub(crate) fn new(site: S, cfg: &RuntimeConfig) -> SiteCore<S> {
        let batch_max = cfg.batch_max.max(1);
        SiteCore {
            site,
            batch: Vec::with_capacity(batch_max),
            items_pending: 0,
            until_poll: 0,
            down_poll_every: cfg.down_poll_every.max(1),
            batch_max,
            metrics: Metrics::new(),
        }
    }

    /// Called once per item, before [`SiteCore::observe`]: true before the
    /// first item and then every `down_poll_every` items, when the caller
    /// applies whatever its down link holds. Downstream messages thus land
    /// in windows of items, mirroring the lockstep runner's
    /// delayed-delivery mode: the protocols tolerate stale thresholds by
    /// design (correctness is unaffected; only message counts may
    /// inflate).
    #[inline]
    pub(crate) fn poll_due(&mut self) -> bool {
        let due = self.until_poll == 0;
        if due {
            self.until_poll = self.down_poll_every;
        }
        self.until_poll -= 1;
        due
    }

    /// Observes one item and ships the batch once it holds `batch_max`
    /// messages, or as soon as the item added an early message
    /// ([`Meter::is_early`]) and the batch holds at least
    /// [`PROMPT_FLUSH_MIN`]. Delay costs most on earlies: once a level
    /// saturates at the coordinator, every early for it still in flight
    /// is stale. Regulars grow rare once the first epochs are set, so
    /// their batches keep waiting for `batch_max`.
    #[inline]
    pub(crate) fn observe(
        &mut self,
        item: Item,
        up: &mut dyn BatchSender<S::Up>,
    ) -> Result<(), TransportError> {
        let before = self.batch.len();
        self.site.observe(item, &mut self.batch);
        self.items_pending += 1;
        let len = self.batch.len();
        if len >= self.batch_max
            || (len >= PROMPT_FLUSH_MIN && self.batch[before..].iter().any(Meter::is_early))
        {
            self.flush(up)?;
        }
        Ok(())
    }

    /// Ships the open batch together with the item count of its window,
    /// metering each message by the paper's accounting (`units` wire
    /// messages, exact `wire_bytes`). The batch is drained in place:
    /// encoding transports keep its allocation alive across flushes;
    /// channel transports move the storage with the messages, so capacity
    /// is restored here for the next window.
    fn flush(&mut self, up: &mut dyn BatchSender<S::Up>) -> Result<(), TransportError> {
        if self.batch.is_empty() {
            return Ok(());
        }
        for msg in self.batch.iter() {
            self.metrics
                .count_up(msg.kind(), msg.units(), msg.wire_bytes());
        }
        let items = std::mem::take(&mut self.items_pending);
        up.send_batch(&mut self.batch, items)?;
        if self.batch.capacity() < self.batch_max {
            self.batch.reserve(self.batch_max - self.batch.len());
        }
        Ok(())
    }

    /// Ships the open batch, then a message-free frame carrying the items
    /// observed since: the stream's tail may have produced no messages,
    /// and downstream watermarks (the daemon's progress, a tree's sync
    /// cadence) must still cover every item. Sends no `Eof`, so the
    /// daemon's attach client can leave its slot resumable.
    pub(crate) fn detach(&mut self, up: &mut dyn BatchSender<S::Up>) -> Result<(), TransportError> {
        self.flush(up)?;
        if self.items_pending > 0 {
            up.send(UpFrame::Batch {
                msgs: Vec::new(),
                items: std::mem::take(&mut self.items_pending),
            })?;
        }
        Ok(())
    }

    /// Ends the stream: the site's closing burst (e.g. the sliding-window
    /// site ships its retained candidate set; per-item protocols add
    /// nothing), then [`SiteCore::detach`], then `Eof`. The burst is not
    /// item-driven and can exceed `batch_max`, so it ships in batch-sized
    /// chunks: one oversized flush would overflow the framed transports'
    /// `MAX_FRAME_LEN` cap.
    pub(crate) fn finish(&mut self, up: &mut dyn BatchSender<S::Up>) -> Result<(), TransportError> {
        self.site.finish(&mut self.batch);
        while self.batch.len() > self.batch_max {
            let rest = self.batch.split_off(self.batch_max);
            self.flush(up)?;
            self.batch = rest;
        }
        self.detach(up)?;
        up.send(UpFrame::Eof)
    }
}

/// Drives one site over its channel endpoint and returns the final site
/// state with the thread's upstream metrics.
pub(crate) fn site_loop<S, I>(
    site: S,
    endpoint: SiteEndpoint<S::Up, S::Down>,
    items: I,
    cfg: &RuntimeConfig,
) -> Result<(S, Metrics), RuntimeError>
where
    S: SiteNode,
    I: IntoIterator<Item = Item>,
{
    let SiteEndpoint { mut up, down, .. } = endpoint;
    let mut core = SiteCore::new(site, cfg);
    for item in items {
        if core.poll_due() {
            while let Ok(msg) = down.try_recv() {
                core.site.receive(&msg);
            }
        }
        core.observe(item, &mut *up)?;
    }
    core.finish(&mut *up)?;
    up.close();
    // Phase 1 complete: release the up sender so the coordinator's queue
    // disconnects even if a sibling site is stuck, then drain the down link
    // until the coordinator closes it (phase 3).
    drop(up);
    while let Ok(msg) = down.recv() {
        core.site.receive(&msg);
    }
    Ok((core.site, core.metrics))
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

    let (coord_res, site_res) = thread::scope(|scope| {
        let mut site_handles = Vec::with_capacity(k);
        for ((site, ep), items) in sites.into_iter().zip(site_eps).zip(streams) {
            site_handles.push(scope.spawn(move || site_loop(site, ep, items, cfg)));
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

    /// A script message: a [`Meter`] with an id.
    trait Scripted: Meter + Send {
        fn id(&self) -> u64;
    }
    impl Scripted for Up {
        fn id(&self) -> u64 {
            self.0
        }
    }

    /// `Tagged(id, early)`: an up message that is an early when its flag
    /// is set.
    #[derive(Clone, Copy, Debug, PartialEq)]
    struct Tagged(u64, bool);
    impl Meter for Tagged {
        fn kind(&self) -> &'static str {
            if self.1 {
                "early"
            } else {
                "regular"
            }
        }
        fn is_early(&self) -> bool {
            self.1
        }
    }
    impl Scripted for Tagged {
        fn id(&self) -> u64 {
            self.0
        }
    }

    /// Emits `msg(id)` for every item below `quiet_from` whose id is a
    /// multiple of `every`, and `burst` messages (ids from 1000) at
    /// `finish`.
    #[derive(Debug)]
    struct ScriptSite<M> {
        every: u64,
        quiet_from: u64,
        burst: u64,
        msg: fn(u64) -> M,
    }
    impl<M: Scripted> SiteNode for ScriptSite<M> {
        type Up = M;
        type Down = Down;
        fn observe(&mut self, item: Item, out: &mut Vec<M>) {
            if item.id < self.quiet_from && item.id.is_multiple_of(self.every) {
                out.push((self.msg)(item.id));
            }
        }
        fn receive(&mut self, _msg: &Down) {}
        fn finish(&mut self, out: &mut Vec<M>) {
            out.extend((1000..1000 + self.burst).map(self.msg));
        }
    }

    /// Records each up frame as `msgs/items` (a message-free frame is the
    /// residual watermark) or `eof`, and the message ids in order.
    #[derive(Default)]
    struct Recorder {
        frames: Vec<String>,
        ids: Vec<u64>,
    }
    impl<M: Scripted> BatchSender<M> for Recorder {
        fn send(&mut self, frame: UpFrame<M>) -> Result<(), TransportError> {
            match frame {
                UpFrame::Batch { msgs, items } => {
                    self.frames.push(format!("{}/{items}", msgs.len()));
                    self.ids.extend(msgs.iter().map(M::id));
                }
                UpFrame::Eof => self.frames.push("eof".into()),
                UpFrame::Fault(e) => self.frames.push(format!("fault {e}")),
            }
            Ok(())
        }
    }

    /// Runs items `0..n` through a [`SiteCore`] the way every caller does
    /// (`poll_due`, then `observe`; `finish` at the end) and returns the
    /// recorded frames, the message ids, and the items before which a down
    /// poll was due.
    fn drive<M: Scripted>(
        cfg: &RuntimeConfig,
        site: ScriptSite<M>,
        n: u64,
    ) -> (Vec<String>, Vec<u64>, Vec<u64>) {
        let mut core = SiteCore::new(site, cfg);
        let mut up = Recorder::default();
        let mut polls = Vec::new();
        for id in 0..n {
            if core.poll_due() {
                polls.push(id);
            }
            core.observe(Item::unit(id), &mut up).unwrap();
        }
        core.finish(&mut up).unwrap();
        assert_eq!(
            core.metrics.up_total,
            up.ids.len() as u64,
            "every message metered"
        );
        (up.frames, up.ids, polls)
    }

    /// `(frame, repeats)` runs, expanded.
    fn frames(runs: &[(&str, usize)]) -> Vec<String> {
        runs.iter()
            .flat_map(|&(f, times)| std::iter::repeat_n(f.to_string(), times))
            .collect()
    }

    #[test]
    fn site_core_pins_frames_and_poll_cadence() {
        // Each case runs two streams. "burst": a message on every even id
        // of 0..40 and a closing burst of 2·batch_max + 1, which ships in
        // chunks. "quiet": a message on each of the first 2·batch_max
        // items and 5 silent ones after, which ends in the residual
        // watermark frame. A struct literal reaches SiteCore unclamped:
        // (0, 0) must run as (1, 1), where batch_max 0 used to spin
        // forever in the attach client's closing burst.
        let literal = RuntimeConfig {
            batch_max: 0,
            down_poll_every: 0,
            ..RuntimeConfig::default()
        };
        let one = RuntimeConfig::new()
            .with_batch_max(1)
            .with_down_poll_every(1);
        let one_burst = frames(&[("1/1", 1), ("1/2", 19), ("1/1", 1), ("1/0", 2), ("eof", 1)]);
        let one_quiet = frames(&[("1/1", 2), ("0/5", 1), ("eof", 1)]);
        let cases = [
            (one, one_burst.clone(), one_quiet.clone(), 1),
            (literal, one_burst, one_quiet, 1),
            (
                RuntimeConfig::new()
                    .with_batch_max(3)
                    .with_down_poll_every(5),
                frames(&[("3/5", 1), ("3/6", 5), ("3/5", 1), ("3/0", 2), ("eof", 1)]),
                frames(&[("3/3", 2), ("0/5", 1), ("eof", 1)]),
                5,
            ),
            (
                RuntimeConfig::new()
                    .with_batch_max(64)
                    .with_down_poll_every(32),
                frames(&[("64/40", 1), ("64/0", 1), ("21/0", 1), ("eof", 1)]),
                frames(&[("64/64", 2), ("0/5", 1), ("eof", 1)]),
                32,
            ),
        ];
        for (cfg, want_burst, want_quiet, poll_every) in cases {
            let bm = cfg.batch_max.max(1) as u64;
            let site = ScriptSite {
                every: 2,
                quiet_from: u64::MAX,
                burst: 2 * bm + 1,
                msg: Up,
            };
            let (got, ids, polls) = drive(&cfg, site, 40);
            assert_eq!(got, want_burst, "{cfg:?}: burst frames");
            let want_ids: Vec<u64> = (0..40).step_by(2).chain(1000..1000 + 2 * bm + 1).collect();
            assert_eq!(ids, want_ids, "{cfg:?}: burst message order");
            let want_polls: Vec<u64> = (0..40).step_by(poll_every).collect();
            assert_eq!(polls, want_polls, "{cfg:?}: burst polls");

            let site = ScriptSite {
                every: 1,
                quiet_from: 2 * bm,
                burst: 0,
                msg: Up,
            };
            let (got, ids, polls) = drive(&cfg, site, 2 * bm + 5);
            assert_eq!(got, want_quiet, "{cfg:?}: quiet frames");
            assert_eq!(ids, (0..2 * bm).collect::<Vec<_>>(), "{cfg:?}: quiet order");
            let want_polls: Vec<u64> = (0..2 * bm + 5).step_by(poll_every).collect();
            assert_eq!(polls, want_polls, "{cfg:?}: quiet polls");
        }
    }

    #[test]
    fn site_core_ships_earlies_at_eight_messages() {
        // A message on each of items 0..40: regulars below id 20, earlies
        // from 20, then 5 silent items. Twenty regulars wait for
        // batch_max; the first early ships all 21 messages, and from then
        // on every 8th early ships a frame. A batch_max below 8 still
        // ships at batch_max.
        let site = || ScriptSite {
            every: 1,
            quiet_from: 40,
            burst: 0,
            msg: |id| Tagged(id, id >= 20),
        };
        let cases = [
            (
                64,
                frames(&[("21/21", 1), ("8/8", 2), ("3/8", 1), ("eof", 1)]),
            ),
            (8, frames(&[("8/8", 5), ("0/5", 1), ("eof", 1)])),
            (3, frames(&[("3/3", 13), ("1/6", 1), ("eof", 1)])),
        ];
        for (batch_max, want) in cases {
            let cfg = RuntimeConfig::new().with_batch_max(batch_max);
            let (got, ids, _) = drive(&cfg, site(), 45);
            assert_eq!(got, want, "batch_max {batch_max}: frames");
            assert_eq!(ids, (0..40).collect::<Vec<_>>(), "batch_max {batch_max}");
        }
    }
}
