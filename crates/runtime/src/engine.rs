//! The site scheduler, and the threads engine built on it.
//!
//! Both concurrent engines run their `k` sites as *tasks* on one pool of
//! worker threads sized by the host, not by `k` (`site_workers`): a
//! `SiteTask` is a resumable state machine around the site's `SiteCore`,
//! advanced in `FEED_CHUNK` turns by one worker loop (`site_worker`) that
//! is generic over the site's link to its coordinator (`SiteLink`):
//! in-process channels on the threads engine, a nonblocking loopback
//! socket on the epoll engine ([`crate::epoll`]). The coordinator runs on
//! a thread of its own, through the loop the tree's aggregators share
//! ([`crate::tree`]).
//!
//! # Deadlock freedom
//!
//! No worker ever blocks on one task. The up path is bounded by credits
//! (`queue_capacity` BATCH frames per coordinator, a `CreditPool`): a
//! task takes one per frame it ships and stops *pulling input* while its
//! coordinator's credits are used up, and the coordinator returns each
//! as it takes the frame. The down path is unbounded and drained eagerly,
//! so the coordinator never blocks and always returns to taking frames;
//! a task waits only on its feed, which never blocks a worker
//! ([`Feed::Pending`]), and on those credits. No cycle of waits can form.
//!
//! A worker with nothing to advance parks in `epoll_wait` with no
//! timeout. Every event that can unblock a parked task wakes it, through
//! the worker's coalescing waker or its poller: a feed's new frame or
//! end, a down message or the down link's close, a returned credit, and
//! on epoll socket readiness.
//!
//! # Graceful shutdown
//!
//! Deterministic three-phase drain, per task:
//!
//! 1. a task's feed ends; it ships its final partial batch (and the
//!    site's closing burst) and `Eof`, then **closes its up link** (so a
//!    stuck sibling cannot wedge the coordinator's queue);
//! 2. the coordinator processes frames until every site has reported `Eof`
//!    (or every up link is gone), then closes all down links;
//! 3. each task drains its remaining down messages until its link closes,
//!    then hands back its final site state and its [`Metrics`].
//!
//! The engine then joins the workers and the coordinator, converting
//! panics into [`RuntimeError`]s instead of hangs (a site's panic is
//! caught per step and pinned to its index), extracts the final weighted
//! sample state (the returned coordinator), and merges the coordinator's
//! and the sites' metrics into one [`Metrics`] whose totals follow the
//! paper's accounting exactly as the lockstep simulator's do.

use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;

use dwrs_core::Item;
use dwrs_sim::{CoordinatorNode, Meter, Metrics, Outbox, SiteNode};

use crate::config::{RuntimeConfig, PROMPT_FLUSH_MIN};
use crate::reactor::{
    current_nofile_limit, is_fd_exhausted, wake_pair, PollEvent, Poller, WakeRx, Waker, WAKE_TOKEN,
};
use crate::transport::{
    channel_links, BatchSender, CoordEndpoint, DownSender, TransportError, UpFrame,
};

/// Why a runtime run failed.
#[derive(Debug)]
pub enum RuntimeError {
    /// A site panicked.
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
            RuntimeError::SitePanicked(i) => write!(f, "site {i} panicked"),
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

/// Maps an I/O error to the typed runtime error: fd-table exhaustion
/// (`EMFILE`/`ENFILE`) becomes [`RuntimeError::FdExhausted`] with the
/// current limit in the message, everything else a transport error.
pub(crate) fn io_runtime_err(what: &str, e: &io::Error) -> RuntimeError {
    if is_fd_exhausted(e) {
        RuntimeError::FdExhausted {
            what: what.to_string(),
            limit: current_nofile_limit(),
        }
    } else {
        RuntimeError::Transport(format!("{what}: {e}"))
    }
}

/// Everything a completed run hands back.
#[derive(Debug)]
pub struct RunOutput<S, C> {
    /// Final site states, in site order (each has seen every broadcast).
    pub sites: Vec<S>,
    /// Final coordinator state; query it for the weighted sample.
    pub coordinator: C,
    /// Merged metrics (coordinator first, then sites 0..k).
    pub metrics: Metrics,
}

/// One site's half of the protocol, without its transport: the site, its
/// open batch, the items observed since the last frame, the down-poll
/// countdown and the up-path [`Metrics`]. Every site driver (the pool's
/// [`SiteTask`] on both engines and the daemon's attach client) runs its
/// items through one of these, so the rule for when a batch ships lives
/// here alone; each caller keeps only its up sender and its down link.
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

// ---------------------------------------------------------------- feeds

/// The fewest workers a site pool gets when it has the sites for them.
/// On a host with fewer cores the workers share them with the coordinator
/// and the feeder; at k = 8 on 2 cores, four workers ran 8–16% faster
/// than two in each of 4 paired runs.
const MIN_SITE_WORKERS: usize = 4;

/// Worker threads in the site pool of a run over `sites` sites, on both
/// engines: one per core this process may run on, at least
/// `MIN_SITE_WORKERS`, never more than the sites. The count follows the
/// host, not `k`: k = 1,000 sites run on as many workers as k = 64.
pub(crate) fn site_workers(sites: usize) -> usize {
    let cores = thread::available_parallelism().map_or(1, usize::from);
    cores.max(MIN_SITE_WORKERS).min(sites).max(1)
}

/// Items a site task pulls per scheduling turn, and the chunk size
/// [`VecFeed`] hands out. Bounds how long one task can monopolize its
/// worker before the tasks sharing it get serviced.
const FEED_CHUNK: usize = 4096;

/// One poll of an [`ItemFeed`].
#[derive(Debug)]
pub enum Feed {
    /// The next chunk of stream items, in arrival order.
    Frame(Vec<Item>),
    /// Nothing available right now. The task yields its worker instead
    /// of blocking, and runs again once the feed wakes the worker.
    Pending,
    /// The stream is exhausted; no further frames follow.
    Done,
}

/// Nonblocking stream source for one site task.
///
/// Tasks share their worker thread, so a worker blocked inside one
/// task's `poll` would starve every other task on it — and with the
/// driver's bounded feeder filling the queues, a blocked worker and a
/// full sibling queue form a cycle. `poll` must return [`Feed::Pending`]
/// instead of waiting. A worker with nothing to do parks without a
/// timeout, so a feed that can return `Pending` must keep the waker
/// [`ItemFeed::set_waker`] hands it, and wake it whenever a frame
/// arrives or the stream ends.
pub trait ItemFeed: Send {
    /// Returns the next chunk, `Pending` if none is ready, or `Done` at
    /// end of stream.
    fn poll(&mut self) -> Feed;

    /// Hands over the waker of the worker that polls this feed, once,
    /// before the first poll. A feed that never returns `Pending` (a
    /// materialized [`VecFeed`]) can ignore it.
    fn set_waker(&mut self, _waker: &std::task::Waker) {}
}

impl<T: ItemFeed + ?Sized> ItemFeed for Box<T> {
    fn poll(&mut self) -> Feed {
        (**self).poll()
    }

    fn set_waker(&mut self, waker: &std::task::Waker) {
        (**self).set_waker(waker)
    }
}

/// An [`ItemFeed`] over a materialized vector, handed out in
/// `FEED_CHUNK`-item frames.
#[derive(Debug)]
pub struct VecFeed {
    items: std::vec::IntoIter<Item>,
}

impl VecFeed {
    /// Wraps a fully materialized per-site stream.
    pub fn new(items: Vec<Item>) -> VecFeed {
        VecFeed {
            items: items.into_iter(),
        }
    }
}

impl ItemFeed for VecFeed {
    fn poll(&mut self) -> Feed {
        let chunk: Vec<Item> = self.items.by_ref().take(FEED_CHUNK).collect();
        if chunk.is_empty() {
            Feed::Done
        } else {
            Feed::Frame(chunk)
        }
    }
}

/// Materializes each partition into a [`VecFeed`]: how the public
/// vector-taking entry points ([`run_threads`],
/// [`crate::tree::run_tree_nodes`]) reach the pool.
pub(crate) fn vec_feeds<I: IntoIterator<Item = Item>>(streams: Vec<I>) -> Vec<Box<dyn ItemFeed>> {
    streams
        .into_iter()
        .map(|items| Box::new(VecFeed::new(items.into_iter().collect())) as Box<dyn ItemFeed>)
        .collect()
}

// -------------------------------------------------------------- credits

/// One waker per site worker, shared by every credit pool of a run.
pub(crate) type Wakers = Arc<[Arc<Waker>]>;

/// The up-path bound of one coordinator: `queue_capacity` BATCH frames,
/// counted from the moment a site task ships one until the coordinator
/// takes it off its queue. Site tasks take the credits; the
/// coordinator's end of the queue ([`crate::transport::UpRx`]) returns
/// them.
///
/// The bound is soft by at most one frame per site worker (a task checks
/// [`CreditPool::used_up`] before each item but takes its credit at the
/// flush), and the closing frames of a task's `finish_stream` take
/// credits without waiting for them.
pub(crate) struct CreditPool {
    /// BATCH frames shipped and not yet taken by the coordinator.
    in_flight: AtomicUsize,
    bound: usize,
    /// Cleared once credits can stop coming back (a fault, an orphaned
    /// handoff, the coordinator's exit); a closed pool never gates again.
    open: AtomicBool,
    /// Every site worker's waker: a worker parked on used-up credits has
    /// no fd that tells it they came back.
    wakers: Wakers,
}

impl CreditPool {
    pub(crate) fn new(bound: usize, wakers: Wakers) -> Arc<CreditPool> {
        Arc::new(CreditPool {
            in_flight: AtomicUsize::new(0),
            bound: bound.max(1),
            open: AtomicBool::new(true),
            wakers,
        })
    }

    /// Takes the credit of one BATCH frame, before the frame can reach
    /// the coordinator (who returns it). Never waits: tasks wait before
    /// pulling input instead, in [`CreditPool::used_up`].
    pub(crate) fn take(&self) {
        self.in_flight.fetch_add(1, Ordering::AcqRel);
    }

    /// True while the tasks drawing on this pool must stop pulling input.
    pub(crate) fn used_up(&self) -> bool {
        self.in_flight.load(Ordering::Acquire) >= self.bound && self.open.load(Ordering::Acquire)
    }

    /// Returns one credit. Every worker is woken when the count falls to
    /// half the bound (to zero for a bound of one): waking on every
    /// used-up → free transition would cost a wake per frame at full load.
    /// Saturates at zero, so a BATCH frame that took no credit (a foreign
    /// peer) cannot wrap the count into a permanent stall.
    pub(crate) fn put(&self) {
        let prev = self
            .in_flight
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| n.checked_sub(1));
        if prev == Ok(self.bound / 2 + 1) {
            self.wake_all();
        }
    }

    /// Stops gating for good and wakes every worker parked on the pool.
    pub(crate) fn close(&self) {
        if self.open.swap(false, Ordering::AcqRel) {
            self.wake_all();
        }
    }

    fn wake_all(&self) {
        for w in self.wakers.iter() {
            w.wake();
        }
    }

    /// BATCH frames in flight.
    #[cfg(test)]
    pub(crate) fn in_flight(&self) -> usize {
        self.in_flight.load(Ordering::Acquire)
    }

    /// Whether the pool still gates.
    #[cfg(test)]
    pub(crate) fn is_open(&self) -> bool {
        self.open.load(Ordering::Acquire)
    }
}

/// A link's up half that takes one credit per BATCH frame it ships.
struct Credited<'a, L> {
    link: &'a mut L,
    credits: &'a CreditPool,
}

impl<U, L: BatchSender<U>> BatchSender<U> for Credited<'_, L> {
    fn send(&mut self, frame: UpFrame<U>) -> Result<(), TransportError> {
        if matches!(frame, UpFrame::Batch { .. }) {
            self.credits.take();
        }
        self.link.send(frame)
    }

    fn send_batch(&mut self, batch: &mut Vec<U>, items: u64) -> Result<(), TransportError> {
        self.credits.take();
        self.link.send_batch(batch, items)
    }
}

// ------------------------------------------------------------ site task

/// What a [`SiteTask`] needs of its link to the coordinator beyond
/// shipping frames (its [`BatchSender`] half, whose `abort` tears the
/// link down on failure). The threads engine's channels and the epoll
/// engine's socket implement it; [`site_worker`] is generic over it.
pub(crate) trait SiteLink<S: SiteNode>: BatchSender<S::Up> {
    /// Applies every down message available now to `site`; true if any
    /// arrived or the link closed. Without `force`, a link with readiness
    /// hints reads only while its socket was reported readable; the
    /// item-cadence poll and the drain phase force a read.
    fn drain_downs(&mut self, site: &mut S, force: bool) -> Result<bool, RuntimeError>;

    /// The down link still delivers.
    fn downs_open(&self) -> bool;

    /// Writes buffered up frames out; true if any bytes moved.
    fn flush(&mut self) -> Result<bool, RuntimeError> {
        Ok(false)
    }

    /// The up buffer is over its cap: stop pulling input until it drains.
    fn backlogged(&self) -> bool {
        false
    }

    /// Half-closes the up direction once every frame is out; true once
    /// it is closed.
    fn close_up(&mut self) -> bool;

    /// Keeps the link's registration in its worker's poller in step with
    /// what it waits on (nothing once `done`). Channel links have no fd.
    fn watch(&mut self, _poller: &Poller, _token: u64, _done: bool) {}

    /// Records a readiness event the poller reported for the link.
    fn ready(&mut self, _ev: &PollEvent) {}
}

/// Where a [`SiteTask`] is in its lifecycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// Pulling items from the feed, observing, flushing batches.
    Streaming,
    /// Stream exhausted; the final flush and `EOF` are queued, and the
    /// up link half-closes once they are out.
    Closing,
    /// Up link closed; consuming down messages until the coordinator
    /// closes the down link.
    Draining,
    /// Finished (successfully or not); `result` is populated.
    Done,
}

/// One site as a resumable state machine around a [`SiteCore`]: the task
/// owns the input (its feed and the `FEED_CHUNK` budget), the link and
/// the credit pool of its coordinator, and the core decides when a batch
/// ships, so a worker can advance the task as far as its input, credits
/// and link allow and move on.
pub(crate) struct SiteTask<S: SiteNode, L> {
    /// Global site index (flat: site id; tree: `group * k + member`).
    global: usize,
    core: SiteCore<S>,
    /// The input, dropped as the task fails: the driver's feeder may be
    /// blocked on this site's full queue, and only the receiver's drop
    /// releases it to close the other sites' queues.
    feed: Option<Box<dyn ItemFeed>>,
    cur: std::vec::IntoIter<Item>,
    link: L,
    credits: Arc<CreditPool>,
    phase: Phase,
    result: Option<Result<Metrics, RuntimeError>>,
}

/// One site's outcome: its final state and metrics, or why it failed.
pub(crate) type SiteResult<S> = Result<(S, Metrics), RuntimeError>;

impl<S: SiteNode, L: SiteLink<S>> SiteTask<S, L> {
    /// Advances the task as far as its input, credits and link allow.
    /// Returns whether any progress was made (the worker parks only when
    /// a full pass over its tasks makes none).
    fn step(&mut self) -> Result<bool, RuntimeError> {
        let mut progress = self.link.flush()?;
        match self.phase {
            Phase::Streaming => {
                progress |= self.link.drain_downs(&mut self.core.site, false)?;
                let mut budget = FEED_CHUNK;
                while budget > 0 && self.phase == Phase::Streaming {
                    if self.link.backlogged() || self.credits.used_up() {
                        // Backpressure: stop pulling input until the link
                        // drains below its cap and the coordinator has
                        // taken enough frames.
                        break;
                    }
                    let item = match self.cur.next() {
                        Some(item) => item,
                        None => match self.feed.as_mut().map_or(Feed::Done, |f| f.poll()) {
                            Feed::Frame(chunk) => {
                                self.cur = chunk.into_iter();
                                progress = true;
                                continue;
                            }
                            Feed::Pending => break,
                            Feed::Done => {
                                self.finish_stream()?;
                                progress = true;
                                break;
                            }
                        },
                    };
                    if self.core.poll_due() {
                        self.link.drain_downs(&mut self.core.site, true)?;
                    }
                    let mut up = Credited {
                        link: &mut self.link,
                        credits: &self.credits,
                    };
                    self.core.observe(item, &mut up)?;
                    progress = true;
                    budget -= 1;
                }
                progress |= self.link.flush()?;
            }
            Phase::Closing => {
                progress |= self.link.drain_downs(&mut self.core.site, false)?;
                if self.link.close_up() {
                    self.phase = Phase::Draining;
                    progress = true;
                }
            }
            Phase::Draining => {
                progress |= self.link.drain_downs(&mut self.core.site, true)?;
                if !self.link.downs_open() {
                    let metrics = std::mem::take(&mut self.core.metrics);
                    self.result = Some(Ok(metrics));
                    self.phase = Phase::Done;
                    progress = true;
                }
            }
            Phase::Done => {}
        }
        Ok(progress)
    }

    /// Queues the end of the stream (see [`SiteCore::finish`]); the
    /// closing phase gets it out. Its BATCH frames take credits without
    /// waiting for them.
    fn finish_stream(&mut self) -> Result<(), RuntimeError> {
        let mut up = Credited {
            link: &mut self.link,
            credits: &self.credits,
        };
        self.core.finish(&mut up)?;
        self.phase = Phase::Closing;
        Ok(())
    }

    /// One step with the site's panics caught and pinned to its index.
    fn run(&mut self) -> bool {
        let failure = match catch_unwind(AssertUnwindSafe(|| self.step())) {
            Ok(Ok(progress)) => return progress,
            Ok(Err(e)) => e,
            Err(_) => RuntimeError::SitePanicked(self.global),
        };
        self.fail(failure);
        true
    }

    /// Ends the task with `failure`. Tears the link down, so the
    /// coordinator side ends the site's link instead of waiting on it, and
    /// drops the feed, so a feeder blocked on the site's queue errors out
    /// instead of waiting on a consumer that is gone.
    fn fail(&mut self, failure: RuntimeError) {
        self.link.abort();
        self.feed = None;
        self.result = Some(Err(failure));
        self.phase = Phase::Done;
    }

    fn into_result(self) -> (usize, SiteResult<S>) {
        let res = match self.result {
            Some(Ok(metrics)) => Ok((self.core.site, metrics)),
            Some(Err(e)) => Err(e),
            None => Err(RuntimeError::SitePanicked(self.global)),
        };
        (self.global, res)
    }
}

// -------------------------------------------------------- site worker pool

/// The site workers of one run before they start: one waker per worker
/// (the credit pools, down links and feeds of its sites hold it) and each
/// worker's poller, with the waker's receiving end registered in it. Site
/// `global` runs on worker `global % workers`.
pub(crate) struct Pool {
    wakers: Wakers,
    loops: Vec<(Poller, WakeRx)>,
}

impl Pool {
    /// [`site_workers`]`(sites)` workers.
    pub(crate) fn new(sites: usize) -> Result<Pool, RuntimeError> {
        let err = |e: io::Error| io_runtime_err("creating a site worker", &e);
        let mut wakers = Vec::new();
        let mut loops = Vec::new();
        for _ in 0..site_workers(sites) {
            let (waker, rx) = wake_pair().map_err(err)?;
            let poller = Poller::new().map_err(err)?;
            poller
                .register(rx.raw_fd(), WAKE_TOKEN, true, false)
                .map_err(err)?;
            wakers.push(waker);
            loops.push((poller, rx));
        }
        Ok(Pool {
            wakers: wakers.into(),
            loops,
        })
    }

    /// The waker of the worker that runs site `global`.
    pub(crate) fn waker(&self, global: usize) -> &Arc<Waker> {
        &self.wakers[global % self.wakers.len()]
    }

    /// A credit pool of `bound` frames whose returns wake these workers.
    pub(crate) fn credits(&self, bound: usize) -> Arc<CreditPool> {
        CreditPool::new(bound, Arc::clone(&self.wakers))
    }

    /// The tasks of sites `first..`: site `first + i` runs `sites[i]` on
    /// `feeds[i]`, which is handed its worker's waker, over `links[i]`,
    /// drawing on `credits`.
    pub(crate) fn tasks<S: SiteNode, L: SiteLink<S>>(
        &self,
        first: usize,
        sites: impl IntoIterator<Item = S>,
        links: impl IntoIterator<Item = L>,
        feeds: Vec<Box<dyn ItemFeed>>,
        credits: &Arc<CreditPool>,
        cfg: &RuntimeConfig,
    ) -> Vec<SiteTask<S, L>> {
        let wiring = sites.into_iter().zip(links).zip(feeds).enumerate();
        wiring
            .map(|(i, ((site, link), mut feed))| {
                let global = first + i;
                feed.set_waker(&std::task::Waker::from(Arc::clone(self.waker(global))));
                SiteTask {
                    global,
                    core: SiteCore::new(site, cfg),
                    feed: Some(feed),
                    cur: Vec::new().into_iter(),
                    link,
                    credits: Arc::clone(credits),
                    phase: Phase::Streaming,
                    result: None,
                }
            })
            .collect()
    }

    /// Runs `tasks` to completion on the workers and returns each site's
    /// outcome by global index; `None` marks a site lost with a panicked
    /// worker.
    pub(crate) fn run<S, L>(self, tasks: Vec<SiteTask<S, L>>) -> Vec<Option<SiteResult<S>>>
    where
        S: SiteNode + Send,
        S::Up: Send,
        L: SiteLink<S> + Send,
    {
        let workers = self.loops.len();
        let mut slots: Vec<Option<SiteResult<S>>> = (0..tasks.len()).map(|_| None).collect();
        let mut shards: Vec<Vec<SiteTask<S, L>>> = (0..workers).map(|_| Vec::new()).collect();
        for t in tasks {
            shards[t.global % workers].push(t);
        }
        thread::scope(|scope| {
            let handles: Vec<_> = shards
                .into_iter()
                .zip(self.loops)
                .map(|(shard, (poller, wake_rx))| {
                    scope.spawn(move || site_worker(shard, poller, wake_rx))
                })
                .collect();
            for h in handles {
                // The worker itself cannot panic (site panics are caught
                // per step); a panic here loses its shard, whose sites the
                // engine reports as panicked.
                for (global, res) in h.join().unwrap_or_default() {
                    slots[global] = Some(res);
                }
            }
        });
        slots
    }
}

/// One worker thread: steps every task while any makes progress, then
/// parks on its poller until a wake or a readiness event, with no
/// timeout (see the module docs for the events that wake it).
fn site_worker<S, L>(
    mut tasks: Vec<SiteTask<S, L>>,
    poller: Poller,
    mut wake_rx: WakeRx,
) -> Vec<(usize, SiteResult<S>)>
where
    S: SiteNode,
    L: SiteLink<S>,
{
    let mut events: Vec<PollEvent> = Vec::new();
    loop {
        let mut progress = false;
        let mut all_done = true;
        for (i, t) in tasks.iter_mut().enumerate() {
            if t.phase != Phase::Done {
                all_done = false;
                progress |= t.run();
            }
            t.link.watch(&poller, i as u64, t.phase == Phase::Done);
        }
        if all_done {
            break;
        }
        if progress {
            continue;
        }
        events.clear();
        if let Err(e) = poller.wait(&mut events, -1) {
            // No readiness facts, now or later: fail what is left rather
            // than spin.
            for t in tasks.iter_mut().filter(|t| t.phase != Phase::Done) {
                t.fail(io_runtime_err("site worker epoll_wait", &e));
            }
        }
        for ev in &events {
            if ev.token == WAKE_TOKEN {
                wake_rx.drain();
            } else if let Some(t) = tasks.get_mut(ev.token as usize) {
                t.link.ready(ev);
            }
        }
    }
    tasks.into_iter().map(SiteTask::into_result).collect()
}

/// The engines' one error priority over their sites: the first site, by
/// index, that panicked (or was lost with its worker).
pub(crate) fn first_site_panic<S>(slots: &[Option<SiteResult<S>>]) -> Result<(), RuntimeError> {
    match slots
        .iter()
        .position(|slot| matches!(slot, None | Some(Err(RuntimeError::SitePanicked(_)))))
    {
        Some(i) => Err(RuntimeError::SitePanicked(i)),
        None => Ok(()),
    }
}

/// Joins a link-serving thread (the epoll engine's reactor), if any.
pub(crate) fn join_serve(
    serve: Option<thread::Result<Result<(), RuntimeError>>>,
) -> Result<(), RuntimeError> {
    let panicked = |_| RuntimeError::Transport("reactor thread panicked".into());
    serve.map_or(Ok(()), |res| res.map_err(panicked)?)
}

// ------------------------------------------------------------ coordinator

/// The loop of every coordinator, flat or a tree's aggregator: takes the
/// sites' frames until every site reached `Eof` (or every up link is
/// gone), hands each message to `node` and routes its answers, and each
/// BATCH frame's item count to `on_batch`; then closes the down links.
/// Returns the first site fault as `(site, diagnostic)`. The coordinator
/// meters its downstream traffic into `metrics`; the sites meter their
/// own upstream traffic.
pub(crate) fn serve_sites<C: CoordinatorNode>(
    node: &mut C,
    endpoint: CoordEndpoint<C::Up, C::Down>,
    metrics: &mut Metrics,
    mut on_batch: impl FnMut(&mut C, u64, &mut Metrics) -> Result<(), RuntimeError>,
) -> Result<Option<(usize, String)>, RuntimeError> {
    let CoordEndpoint { up, mut downs } = endpoint;
    let k = downs.len();
    let mut outbox = Outbox::new();
    let mut done = 0usize;
    let mut fault = None;
    while done < k {
        match up.recv() {
            Ok((site, UpFrame::Batch { msgs, items })) => {
                for msg in msgs {
                    node.receive(site, msg, &mut outbox);
                    route(&mut outbox, &mut downs, metrics);
                }
                on_batch(node, items, metrics)?;
            }
            Ok((_, UpFrame::Eof)) => done += 1,
            Ok((site, UpFrame::Fault(e))) => {
                fault.get_or_insert((site, e));
                done += 1;
            }
            // All up links gone before k Eofs: a site died without its
            // Eof (e.g. panicked). End the run; the engine's joins surface
            // the precise cause.
            Err(mpsc::RecvError) => break,
        }
    }
    for d in &mut downs {
        d.close();
    }
    Ok(fault)
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

// ------------------------------------------------------------- engines

/// Runs a flat deployment: the sites as `tasks` on `pool`, the
/// coordinator on a thread of its own, and `serve` (the epoll engine's
/// reactor) on another. Then joins them in the one error priority both
/// engines share — the first panicked site by index, then the
/// coordinator (its panic, then its error), then `serve`, then the first
/// site error — and merges the coordinator's metrics with the sites', in
/// site order.
pub(crate) fn run_flat<S, C, L, F>(
    pool: Pool,
    tasks: Vec<SiteTask<S, L>>,
    mut coordinator: C,
    coord_ep: CoordEndpoint<S::Up, S::Down>,
    serve: Option<F>,
) -> Result<RunOutput<S, C>, RuntimeError>
where
    S: SiteNode + Send,
    S::Up: Send,
    C: CoordinatorNode<Up = S::Up, Down = S::Down> + Send,
    L: SiteLink<S> + Send,
    F: FnOnce() -> Result<(), RuntimeError> + Send,
{
    let (serve_res, coord_res, slots) = thread::scope(|scope| {
        let serve = serve.map(|f| scope.spawn(f));
        let coord = scope.spawn(|| {
            let mut metrics = Metrics::new();
            match serve_sites(&mut coordinator, coord_ep, &mut metrics, |_, _, _| Ok(()))? {
                Some((site, e)) => Err(RuntimeError::Transport(format!("site {site}: {e}"))),
                None => Ok(metrics),
            }
        });
        let slots = pool.run(tasks);
        (serve.map(|h| h.join()), coord.join(), slots)
    });
    first_site_panic(&slots)?;
    let mut metrics = coord_res.map_err(|_| RuntimeError::CoordinatorPanicked)??;
    join_serve(serve_res)?;
    let mut sites = Vec::with_capacity(slots.len());
    for slot in slots {
        let (site, site_metrics) = slot.expect("checked above")?;
        metrics.merge(&site_metrics);
        sites.push(site);
    }
    Ok(RunOutput {
        sites,
        coordinator,
        metrics,
    })
}

/// Runs a deployment on the site pool, its sites connected to the
/// coordinator thread by in-process channels. Any
/// [`SiteNode`]/[`CoordinatorNode`] pair from `dwrs-sim` runs unmodified.
///
/// `streams[i]` is site `i`'s partition of the global stream, in that
/// site's arrival order; each is materialized into a [`VecFeed`] (the
/// scenario driver streams its bounded shard queues instead).
pub fn run_threads<S, C, I>(
    sites: Vec<S>,
    coordinator: C,
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
    run_threads_fed(sites, coordinator, vec_feeds(streams), cfg)
}

/// [`run_threads`] over nonblocking feeds, `feeds[i]` site `i`'s.
pub(crate) fn run_threads_fed<S, C>(
    sites: Vec<S>,
    coordinator: C,
    feeds: Vec<Box<dyn ItemFeed>>,
    cfg: &RuntimeConfig,
) -> Result<RunOutput<S, C>, RuntimeError>
where
    S: SiteNode + Send,
    S::Up: Send + 'static,
    S::Down: Clone + Send + 'static,
    C: CoordinatorNode<Up = S::Up, Down = S::Down> + Send,
{
    let k = sites.len();
    assert!(k >= 1, "need at least one site");
    assert_eq!(feeds.len(), k, "one stream partition per site");
    let pool = Pool::new(k)?;
    let credits = pool.credits(cfg.queue_capacity);
    let (links, coord_ep) = channel_links(&pool, 0, k, &credits);
    let tasks = pool.tasks(0, sites, links, feeds, &credits, cfg);
    run_flat(
        pool,
        tasks,
        coordinator,
        coord_ep,
        None::<fn() -> Result<(), RuntimeError>>,
    )
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

    /// Records the id of every thread that observes an item or finishes.
    #[derive(Debug)]
    struct ThreadIdSite {
        seen: Arc<std::sync::Mutex<std::collections::HashSet<thread::ThreadId>>>,
    }
    impl ThreadIdSite {
        fn record(&self) {
            let mut ids = self.seen.lock().unwrap();
            ids.insert(thread::current().id());
        }
    }
    impl SiteNode for ThreadIdSite {
        type Up = Up;
        type Down = Down;
        fn observe(&mut self, item: Item, out: &mut Vec<Up>) {
            self.record();
            out.push(Up(item.id));
        }
        fn receive(&mut self, _msg: &Down) {}
        fn finish(&mut self, _out: &mut Vec<Up>) {
            self.record();
        }
    }
    impl dwrs_core::framed::FrameCodec for Up {
        fn encode(&self, buf: &mut Vec<u8>) {
            buf.extend_from_slice(&self.0.to_le_bytes());
        }
        fn decode(buf: &[u8]) -> Result<(Self, usize), dwrs_core::swor::wire::WireError> {
            let bytes = buf
                .get(..8)
                .ok_or(dwrs_core::swor::wire::WireError::Truncated)?;
            Ok((Up(u64::from_le_bytes(bytes.try_into().unwrap())), 8))
        }
    }
    impl dwrs_core::framed::FrameCodec for Down {
        fn encode(&self, buf: &mut Vec<u8>) {
            buf.extend_from_slice(&self.0.to_le_bytes());
        }
        fn decode(buf: &[u8]) -> Result<(Self, usize), dwrs_core::swor::wire::WireError> {
            let bytes = buf
                .get(..8)
                .ok_or(dwrs_core::swor::wire::WireError::Truncated)?;
            Ok((Down(u64::from_le_bytes(bytes.try_into().unwrap())), 8))
        }
    }
    impl crate::tree::SampleSource for EchoCoord {
        fn keyed_sample(&self) -> Vec<dwrs_core::Keyed> {
            Vec::new()
        }
    }

    #[test]
    fn thread_count_stays_flat_in_k() {
        // 64 sites, flat and as a tree of 2 groups of 32: every site runs
        // on one of the pool's workers, none on a thread of its own. (On
        // a host with 64 cores or more the pool has a worker per site.)
        let seen = Arc::new(std::sync::Mutex::new(std::collections::HashSet::new()));
        let site = |_| ThreadIdSite {
            seen: Arc::clone(&seen),
        };
        let flat: Vec<ThreadIdSite> = (0..64).map(site).collect();
        let out = run_threads(
            flat,
            EchoCoord { received: 0 },
            parts(6_400, 64),
            &RuntimeConfig::default(),
        )
        .unwrap();
        assert_eq!(out.coordinator.received, 6_400);
        let flat_ids = seen.lock().unwrap().len();
        assert!(
            (1..=site_workers(64)).contains(&flat_ids),
            "64 flat sites ran on {flat_ids} threads"
        );

        seen.lock().unwrap().clear();
        let topo = crate::TreeTopology::new(2, 32, 1_000);
        let streams: Vec<Vec<Vec<Item>>> = parts(6_400, 64)
            .chunks(32)
            .map(<[Vec<Item>]>::to_vec)
            .collect();
        let out = crate::run_tree_nodes(
            crate::EngineKind::Threads,
            8,
            &topo,
            |gi, i| site(gi * 32 + i),
            |_| EchoCoord { received: 0 },
            streams,
            &RuntimeConfig::default(),
        )
        .unwrap();
        let items: u64 = out.group_stats.iter().map(|st| st.items).sum();
        assert_eq!(items, 6_400);
        let tree_ids = seen.lock().unwrap().len();
        assert!(
            (1..=site_workers(64)).contains(&tree_ids),
            "64 tree sites ran on {tree_ids} threads"
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
