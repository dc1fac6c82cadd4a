//! The event-driven `epoll` engine, the one socket engine: thousands of
//! site connections over loopback TCP, multiplexed onto a small fixed
//! pool of event-loop threads.
//!
//! At the paper's deployment regime (k in the thousands, one site per
//! edge/user shard) a thread per connection would be tens of thousands of
//! threads. This engine runs readiness-driven state machines over
//! nonblocking sockets instead (see [`crate::reactor`]), speaking the
//! `HELLO`/`BATCH`/`EOF`/`FAULT`/`DOWN` frames through the data-plane
//! codec in [`crate::tcp`], with the threads engine's [`Metrics`]
//! accounting:
//!
//! * **Site side** — each site is a `SiteTask`: the threads engine's
//!   `SiteCore` (observe, flush, finish) behind a resumable state machine
//!   that owns the nonblocking socket and drains the down link, driven by a
//!   worker pool of `EPOLL_WORKERS` event loops.
//!   Input arrives through the nonblocking [`ItemFeed`] interface instead
//!   of a blocking iterator, so one stalled feed never wedges the other
//!   tasks sharing its worker.
//! * **Coordinator side** — one reactor thread owns every site connection:
//!   it reassembles up-frames and hands each one to the unmodified
//!   `coordinator_loop` (or a tree's `aggregator_loop`) over an unbounded
//!   `mpsc` channel, and flushes down-messages from per-connection
//!   `SendBuf`s on write readiness.
//!
//! # Backpressure and deadlock freedom, tier by tier
//!
//! The engine invariant (bounded up path, unbounded eagerly drained down
//! path — see [`crate::engine`]) maps onto the reactor so:
//!
//! * The up path is bounded by credits: `queue_capacity` BATCH frames per
//!   coordinator, counted from the moment a site task encodes one until
//!   the coordinator takes it (`CreditPool`). A task takes a credit per
//!   encoded BATCH frame and stops *pulling input* while its
//!   coordinator's credits are used up, so frames built against stale
//!   thresholds cannot pile up in send buffers, kernel socket buffers and
//!   the handoff while the coordinator is busy. No event-loop thread ever
//!   blocks on a credit.
//! * The reactor hands each frame to its coordinator over an unbounded
//!   channel and never blocks on it: one slow coordinator (a tree's
//!   aggregator) cannot stall the connections of the others. The
//!   coordinator returns a BATCH frame's credit as it takes the frame off
//!   the channel, so the credits bound the channel's depth as they bound
//!   every other buffer on the way; `Eof` and `Fault` frames, at most one
//!   per connection, take none.
//! * The reactor reads each readable connection at most once per pass,
//!   then runs its down-flush pass. Level-triggered epoll reports the
//!   unread rest on the next pass, so one busy connection cannot starve
//!   the down path of fresh thresholds.
//! * A site task also stops pulling input while its up `SendBuf` is over
//!   cap, so per-connection memory stays bounded even for frames that
//!   take no credit.
//! * Credits held by a dead connection never come back, so a pool stops
//!   gating once the reactor sees a fault, finds the coordinator gone, or
//!   exits for any reason, and once the coordinator drops its end of the
//!   handoff. Returning credits wakes parked site workers through their
//!   `Waker`s, once per drop to half the bound.
//! * Down sends never block and never fail: [`DownSender::send`] appends
//!   to the connection's `SendBuf` under a mutex and wakes the reactor
//!   (`Waker` coalesces wake storms to one byte). Sites drain eagerly,
//!   so the down buffers are transient; their cap is advisory.
//!
//! # Lifecycle of a site connection
//!
//! ```text
//! Streaming ──(feed Done, finish+EOF queued)──▶ Closing
//! Closing ───(send buffer drained, shutdown(Write))──▶ Draining
//! Draining ──(down link EOF from coordinator)──▶ Done
//! ```
//!
//! Any I/O error or protocol violation short-circuits to `Done` with the
//! socket fully shut down, so the peer fails fast instead of hanging.

use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

use dwrs_core::framed::FrameCodec;
use dwrs_core::merge::merge_samples;
use dwrs_core::swor::SyncMsg;
use dwrs_core::{Item, Keyed};
use dwrs_sim::{CoordinatorNode, Metrics, NoDown, SiteNode};

use crate::config::RuntimeConfig;
use crate::engine::{coordinator_loop, RunOutput, RuntimeError, SiteCore};
use crate::reactor::{
    current_nofile_limit, is_fd_exhausted, raise_nofile_limit, wake_pair, PollEvent, Poller,
    RecvBuf, SendBuf, WakeRx, Waker, WAKE_TOKEN,
};
use crate::tcp::{
    accept_sites, connect_site, decode_down, decode_up, encode_batch, encode_down, encode_up,
    read_hello, write_hello,
};
use crate::transport::{BatchSender, CoordEndpoint, DownSender, TransportError, UpFrame, UpRx};
use crate::tree::{
    aggregator_loop, check_sync_fits_frame, root_loop, GroupStats, SampleSource, TreeOutput,
    TreeTopology,
};

/// Event-loop threads in the site-side worker pool. Connection count is a
/// memory problem, not a thread-count problem: k=1000 sites run on this
/// many loops (plus one coordinator reactor), not 2k+1000 threads.
pub(crate) const EPOLL_WORKERS: usize = 4;

/// Items a site task pulls per scheduling quantum, and the chunk size
/// [`VecFeed`] hands out. Bounds how long one task can monopolize its
/// worker before co-scheduled connections get serviced.
const FEED_CHUNK: usize = 4096;

/// Soft cap on a site's buffered-but-unflushed up bytes: past this the
/// task stops pulling input until write readiness drains it (the buffered
/// analogue of a blocking socket `send`).
const UP_BUF_CAP: usize = 64 * 1024;

/// Advisory cap on a connection's buffered down bytes. Down sends must
/// never block or fail (deadlock-freedom invariant), so the coordinator
/// may run over; sites drain eagerly, keeping the excess transient.
const DOWN_BUF_CAP: usize = 64 * 1024;

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

// ---------------------------------------------------------------- feeds

/// One poll of an [`ItemFeed`].
#[derive(Debug)]
pub enum Feed {
    /// The next chunk of stream items, in arrival order.
    Frame(Vec<Item>),
    /// Nothing available right now; poll again later. The task yields its
    /// worker instead of blocking.
    Pending,
    /// The stream is exhausted; no further frames follow.
    Done,
}

/// Nonblocking stream source for one site task.
///
/// The multiplexed engine cannot use blocking iterators: a worker thread
/// blocked inside one task's `next()` would starve every other connection
/// scheduled on that loop — and with the driver's bounded feeder filling
/// the queues, a blocked worker and a full sibling queue form a cycle.
/// `poll` must return [`Feed::Pending`] instead of waiting.
pub trait ItemFeed: Send {
    /// Returns the next chunk, `Pending` if none is ready, or `Done` at
    /// end of stream.
    fn poll(&mut self) -> Feed;
}

impl<T: ItemFeed + ?Sized> ItemFeed for Box<T> {
    fn poll(&mut self) -> Feed {
        (**self).poll()
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

// -------------------------------------------------------------- credits

/// One waker per site worker, shared by every credit pool of a run.
type Wakers = Arc<[Arc<Waker>]>;

/// The up-path bound of one coordinator: `queue_capacity` BATCH frames,
/// counted from the moment a site task encodes one until the coordinator
/// takes it off the reactor's handoff. Site tasks take the credits; the
/// coordinator's end of the handoff ([`crate::transport::UpRx`]) returns
/// them.
///
/// The bound is soft by at most one frame per site worker (a task checks
/// [`CreditPool::used_up`] before each item but takes its credit at the
/// flush), and the closing frames of `finish_stream` take credits without
/// waiting for them.
pub(crate) struct CreditPool {
    /// BATCH frames encoded and not yet taken by the coordinator.
    in_flight: AtomicUsize,
    bound: usize,
    /// Cleared once credits can stop coming back (a fault, an orphaned
    /// handoff, the reactor's exit); a closed pool never gates again.
    open: AtomicBool,
    /// Every site worker's waker: a worker parked on used-up credits has
    /// no fd that tells it they came back.
    wakers: Wakers,
}

impl CreditPool {
    fn new(bound: usize, wakers: Wakers) -> Arc<CreditPool> {
        Arc::new(CreditPool {
            in_flight: AtomicUsize::new(0),
            bound: bound.max(1),
            open: AtomicBool::new(true),
            wakers,
        })
    }

    /// Takes the credit of one encoded BATCH frame. Never waits: tasks
    /// wait before pulling input instead, in [`CreditPool::used_up`].
    fn take(&self) {
        self.in_flight.fetch_add(1, Ordering::AcqRel);
    }

    /// True while the tasks drawing on this pool must stop pulling input.
    fn used_up(&self) -> bool {
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
}

// ------------------------------------------------------------ up sender

/// [`BatchSender`] over a [`SendBuf`]: encodes through the data-plane
/// codec into the connection's buffer instead of a blocking socket write,
/// so the resumable site task ships through the same [`SiteCore`] as the
/// blocking drivers. Every BATCH frame it encodes takes a credit.
struct BufUp<'a> {
    buf: &'a mut SendBuf,
    credits: &'a CreditPool,
}

impl<U: FrameCodec + Send> BatchSender<U> for BufUp<'_> {
    fn send(&mut self, frame: UpFrame<U>) -> Result<(), TransportError> {
        self.buf
            .frame_with(|b| encode_up(&frame, b))
            .map_err(TransportError::Io)?;
        if matches!(frame, UpFrame::Batch { .. }) {
            self.credits.take();
        }
        Ok(())
    }

    fn send_batch(&mut self, batch: &mut Vec<U>, items: u64) -> Result<(), TransportError> {
        self.buf
            .frame_with(|b| encode_batch(batch, items, b))
            .map_err(TransportError::Io)?;
        self.credits.take();
        batch.clear();
        Ok(())
    }
}

// ------------------------------------------------------------ site task

/// Where a [`SiteTask`] is in its connection lifecycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// Pulling items from the feed, observing, flushing batches.
    Streaming,
    /// Stream exhausted; final flush + `EOF` are queued, draining the
    /// send buffer before the write half-close.
    Closing,
    /// Write side closed; consuming down-messages until the coordinator
    /// half-closes.
    Draining,
    /// Finished (successfully or not); `result` is populated.
    Done,
}

/// One site connection as a resumable state machine around a [`SiteCore`]:
/// the task owns the transport (the nonblocking socket, its buffers, the
/// credit pool and the `FEED_CHUNK` budget) and the core decides when a
/// batch ships, so a worker can advance the task as far as readiness
/// allows and move on.
struct SiteTask<S: SiteNode> {
    /// Global site index (flat: site id; tree: `group * k + member`).
    global: usize,
    core: SiteCore<S>,
    feed: Box<dyn ItemFeed>,
    cur: std::vec::IntoIter<Item>,
    stream: TcpStream,
    recv: RecvBuf,
    send: SendBuf,
    /// The credit pool of the coordinator this site reports to.
    credits: Arc<CreditPool>,
    phase: Phase,
    /// Readiness hints from the worker's poller (level-triggered, so a
    /// stale `true` costs one `WouldBlock` syscall, never a lost event).
    read_ready: bool,
    write_ready: bool,
    /// The down link still delivers (false once the coordinator
    /// half-closes or the connection dies).
    downs_open: bool,
    /// Poller registration bookkeeping (worker-maintained).
    registered: bool,
    reg_read: bool,
    reg_write: bool,
    result: Option<Result<Metrics, RuntimeError>>,
}

impl<S: SiteNode> SiteTask<S>
where
    S::Up: FrameCodec + Send,
    S::Down: FrameCodec,
{
    fn new(
        global: usize,
        core: SiteCore<S>,
        feed: Box<dyn ItemFeed>,
        stream: TcpStream,
        credits: Arc<CreditPool>,
    ) -> SiteTask<S> {
        SiteTask {
            global,
            core,
            feed,
            cur: Vec::new().into_iter(),
            stream,
            recv: RecvBuf::new(),
            send: SendBuf::with_cap(UP_BUF_CAP),
            credits,
            phase: Phase::Streaming,
            read_ready: true,
            write_ready: true,
            downs_open: true,
            registered: false,
            reg_read: false,
            reg_write: false,
            result: None,
        }
    }

    /// Advances the task as far as current readiness allows. Returns
    /// whether any progress was made (the worker idles only when a full
    /// pass over its tasks makes none).
    fn step(&mut self) -> Result<bool, RuntimeError> {
        let mut progress = self.flush_send()?;
        match self.phase {
            Phase::Streaming => {
                if self.read_ready {
                    progress |= self.drain_downs(false)?;
                }
                let mut budget = FEED_CHUNK;
                while budget > 0 && self.phase == Phase::Streaming {
                    if self.send.over_cap() || self.credits.used_up() {
                        // Backpressure: stop pulling input until write
                        // readiness drains the buffer below cap and the
                        // coordinator has taken enough frames.
                        break;
                    }
                    let item = match self.cur.next() {
                        Some(item) => item,
                        None => match self.feed.poll() {
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
                        self.drain_downs(true)?;
                    }
                    let mut up = BufUp {
                        buf: &mut self.send,
                        credits: &self.credits,
                    };
                    self.core.observe(item, &mut up)?;
                    progress = true;
                    budget -= 1;
                }
                progress |= self.flush_send()?;
            }
            Phase::Closing => {
                if self.read_ready {
                    progress |= self.drain_downs(false)?;
                }
                if self.send.is_empty() {
                    let _ = self.stream.shutdown(Shutdown::Write);
                    self.phase = Phase::Draining;
                    progress = true;
                }
            }
            Phase::Draining => {
                progress |= self.drain_downs(true)?;
                if !self.downs_open {
                    self.complete();
                    progress = true;
                }
            }
            Phase::Done => {}
        }
        Ok(progress)
    }

    /// Queues the end of the stream into the send buffer (see
    /// [`SiteCore::finish`]); [`Phase::Closing`] drains it to the socket.
    /// Its BATCH frames take credits without waiting for them.
    fn finish_stream(&mut self) -> Result<(), RuntimeError> {
        let mut up = BufUp {
            buf: &mut self.send,
            credits: &self.credits,
        };
        self.core.finish(&mut up)?;
        self.phase = Phase::Closing;
        Ok(())
    }

    /// Writes as much buffered up-traffic as the socket accepts.
    fn flush_send(&mut self) -> Result<bool, RuntimeError> {
        if self.send.is_empty() || !self.write_ready {
            return Ok(false);
        }
        match self.send.flush_to(&mut (&self.stream)) {
            Ok(n) => {
                if !self.send.is_empty() {
                    self.write_ready = false;
                }
                Ok(n > 0)
            }
            Err(e) => Err(io_runtime_err(&format!("site {} up link", self.global), &e)),
        }
    }

    /// Applies every complete down-frame currently available. With
    /// `force`, performs a read even without a readiness hint (the
    /// item-cadence poll and the drain phase); otherwise reads only while
    /// the socket was reported readable. Connection close or error ends
    /// the drain (`downs_open = false`) like the channel transport's
    /// disconnect; a malformed frame is a transport error.
    fn drain_downs(&mut self, force: bool) -> Result<bool, RuntimeError> {
        if !self.downs_open || !(force || self.read_ready) {
            return Ok(false);
        }
        let mut progress = false;
        loop {
            loop {
                let msg: S::Down = match self.recv.next_frame() {
                    Ok(None) => break,
                    Ok(Some(payload)) => decode_down(payload).map_err(|e| {
                        RuntimeError::Transport(format!("site {}: {e}", self.global))
                    })?,
                    Err(e) => {
                        return Err(RuntimeError::Transport(format!(
                            "site {} down link: {e}",
                            self.global
                        )))
                    }
                };
                self.core.site.receive(&msg);
                progress = true;
            }
            match self.recv.fill_from(&mut (&self.stream)) {
                Ok(0) => {
                    self.downs_open = false;
                    return Ok(true);
                }
                Ok(_) => progress = true,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.read_ready = false;
                    return Ok(progress);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    // Reset/abort: end the drain like a closed channel —
                    // the run's outcome is decided by the up path.
                    self.downs_open = false;
                    return Ok(true);
                }
            }
        }
    }

    /// Clean completion: record this task's metrics.
    fn complete(&mut self) {
        let metrics = std::mem::take(&mut self.core.metrics);
        self.result = Some(Ok(metrics));
        self.phase = Phase::Done;
    }

    /// Failure path: tear the connection down so the peer fails fast.
    fn fail(&mut self, e: RuntimeError) {
        let _ = self.stream.shutdown(Shutdown::Both);
        self.result = Some(Err(e));
        self.phase = Phase::Done;
    }

    /// The interest set the worker should keep registered, or `None` when
    /// the task wants no events. `None` means *deregister*: `EPOLLHUP` is
    /// reported regardless of the mask, so leaving a dead-idle connection
    /// registered would storm the level-triggered loop.
    fn desired_interest(&self) -> Option<(bool, bool)> {
        if self.phase == Phase::Done {
            return None;
        }
        let r = self.downs_open;
        let w = !self.send.is_empty();
        if r || w {
            Some((r, w))
        } else {
            None
        }
    }
}

// ----------------------------------------------------- site worker pool

/// Per-task outcome of a worker shard: `(global_index, result)`.
type SiteResults<S> = Vec<(usize, Result<(S, Metrics), RuntimeError>)>;

/// Makes one waker per site worker (`EPOLL_WORKERS`, fewer when there are
/// fewer sites). The credit pools hold the wakers; [`run_site_pool`] gets
/// the receive ends, one per worker.
fn site_wakers(sites: usize) -> Result<(Wakers, Vec<WakeRx>), RuntimeError> {
    let mut wakers = Vec::new();
    let mut rxs = Vec::new();
    for _ in 0..EPOLL_WORKERS.min(sites).max(1) {
        let (waker, rx) =
            wake_pair().map_err(|e| io_runtime_err("creating site worker waker", &e))?;
        wakers.push(waker);
        rxs.push(rx);
    }
    Ok((wakers.into(), rxs))
}

/// Runs `tasks` to completion on a pool of event-loop threads, one per
/// waker in `wake_rxs`, returning `(global_index, result)` per task.
/// Tasks are distributed round-robin, preserving a deterministic
/// global→worker mapping.
fn run_site_pool<S>(tasks: Vec<SiteTask<S>>, wake_rxs: Vec<WakeRx>) -> SiteResults<S>
where
    S: SiteNode + Send,
    S::Up: FrameCodec + Send,
    S::Down: FrameCodec,
{
    let workers = wake_rxs.len();
    let mut shards: Vec<Vec<SiteTask<S>>> = (0..workers).map(|_| Vec::new()).collect();
    for (i, t) in tasks.into_iter().enumerate() {
        shards[i % workers].push(t);
    }
    thread::scope(|scope| {
        let handles: Vec<_> = shards
            .into_iter()
            .zip(wake_rxs)
            .map(|(shard, wake_rx)| scope.spawn(move || site_worker(shard, wake_rx)))
            .collect();
        let mut out = Vec::new();
        for h in handles {
            // The worker itself cannot panic (site panics are caught per
            // step); a panic here loses its shard — the engine reports
            // the missing sites as panicked.
            if let Ok(results) = h.join() {
                out.extend(results);
            }
        }
        out
    })
}

/// One event-loop thread: steps every task while progress is made, then
/// blocks on the poller (with a short timeout — feed arrivals have no fd)
/// and refreshes per-task readiness hints. Returning credits wakes it
/// through `wake_rx`.
fn site_worker<S>(mut tasks: Vec<SiteTask<S>>, mut wake_rx: WakeRx) -> SiteResults<S>
where
    S: SiteNode,
    S::Up: FrameCodec + Send,
    S::Down: FrameCodec,
{
    let poller = Poller::new().ok();
    if let Some(p) = poller.as_ref() {
        // A failed registration only costs parked tasks the poll timeout.
        let _ = p.register(wake_rx.raw_fd(), WAKE_TOKEN, true, false);
    }
    let mut events: Vec<PollEvent> = Vec::new();
    loop {
        let mut progress = false;
        let mut all_done = true;
        for (i, t) in tasks.iter_mut().enumerate() {
            if t.phase == Phase::Done && !t.registered {
                continue;
            }
            if t.phase != Phase::Done {
                all_done = false;
                match catch_unwind(AssertUnwindSafe(|| t.step())) {
                    Ok(Ok(p)) => progress |= p,
                    Ok(Err(e)) => {
                        t.fail(e);
                        progress = true;
                    }
                    Err(_) => {
                        t.fail(RuntimeError::SitePanicked(t.global));
                        progress = true;
                    }
                }
            }
            if let Some(p) = poller.as_ref() {
                update_interest(t, p, i as u64);
            }
        }
        if all_done {
            break;
        }
        if progress {
            continue;
        }
        match poller.as_ref() {
            Some(p) => {
                events.clear();
                // Short timeout, not indefinite: item feeds are queue-fed
                // (no fd), so a stalled feed must be re-polled promptly.
                if p.wait(&mut events, 1).is_err() {
                    // No readiness facts this round: optimistically re-arm
                    // so the next pass retries I/O instead of wedging on
                    // stale hints.
                    rearm_all(&mut tasks);
                    thread::sleep(Duration::from_micros(500));
                }
                for ev in &events {
                    if ev.token == WAKE_TOKEN {
                        wake_rx.drain();
                        continue;
                    }
                    if let Some(t) = tasks.get_mut(ev.token as usize) {
                        if ev.readable {
                            t.read_ready = true;
                        }
                        if ev.writable {
                            t.write_ready = true;
                        }
                        if ev.hangup {
                            // Let the task's next read/write observe the
                            // failure directly.
                            t.read_ready = true;
                            t.write_ready = true;
                        }
                    }
                }
            }
            // No epoll instance (creation failed): degrade to a timed
            // spin. The hints are normally re-armed only by poll events,
            // so without a poller they must be forced back on each round —
            // otherwise the first WouldBlock would clear them forever and
            // the task would wedge with a full send buffer.
            None => {
                rearm_all(&mut tasks);
                thread::sleep(Duration::from_micros(500));
            }
        }
    }
    tasks
        .into_iter()
        .map(|t| {
            let res = match t.result {
                Some(Ok(m)) => Ok((t.core.site, m)),
                Some(Err(e)) => Err(e),
                None => Err(RuntimeError::SitePanicked(t.global)),
            };
            (t.global, res)
        })
        .collect()
}

/// Forces every live task's readiness hints back on. Used when no poll
/// facts are available this round (no poller at all, or a failed wait):
/// the hints are otherwise re-armed only by poll events, so without this
/// the timed spin would never retry I/O after a `WouldBlock`.
fn rearm_all<S: SiteNode>(tasks: &mut [SiteTask<S>]) {
    for t in tasks.iter_mut() {
        if t.phase != Phase::Done {
            t.read_ready = true;
            t.write_ready = true;
        }
    }
}

/// Reconciles a task's poller registration with its desired interest set.
fn update_interest<S>(t: &mut SiteTask<S>, poller: &Poller, token: u64)
where
    S: SiteNode,
    S::Up: FrameCodec + Send,
    S::Down: FrameCodec,
{
    use std::os::fd::AsRawFd;
    match t.desired_interest() {
        None => {
            if t.registered && poller.deregister(t.stream.as_raw_fd()).is_ok() {
                t.registered = false;
            }
        }
        Some((r, w)) => {
            if t.registered && (r, w) == (t.reg_read, t.reg_write) {
                return;
            }
            let ok = if t.registered {
                poller.modify(t.stream.as_raw_fd(), token, r, w).is_ok()
            } else {
                poller.register(t.stream.as_raw_fd(), token, r, w).is_ok()
            };
            if ok {
                t.registered = true;
                t.reg_read = r;
                t.reg_write = w;
            }
        }
    }
}

// ------------------------------------------------- coordinator reactor

/// Shared down-path state for one connection: the coordinator thread
/// appends frames, the reactor flushes them on write readiness.
struct DownState {
    send: SendBuf,
    closing: bool,
}

/// The coordinator-side handle pair: buffer plus reactor waker, with
/// lock-free mirrors of the buffer state so the reactor's per-iteration
/// pass over thousands of connections skips the mutex for idle ones.
struct ConnTx {
    state: Mutex<DownState>,
    waker: Arc<Waker>,
    /// Bytes pending in `state.send`, published under the lock by every
    /// mutator ([`ConnTx::publish`]).
    pending_hint: AtomicUsize,
    /// `state.closing`, published the same way — the reactor must visit a
    /// closing connection even with an empty buffer (to half-close it).
    closing_hint: AtomicBool,
}

impl ConnTx {
    fn new(waker: Arc<Waker>) -> Arc<ConnTx> {
        Arc::new(ConnTx {
            state: Mutex::new(DownState {
                send: SendBuf::with_cap(DOWN_BUF_CAP),
                closing: false,
            }),
            waker,
            pending_hint: AtomicUsize::new(0),
            closing_hint: AtomicBool::new(false),
        })
    }

    /// Mirrors the lock-held state into the atomic hints. Must be called
    /// with the `state` guard still held by every code path that mutates
    /// `DownState`, so the hints never lag a released lock.
    fn publish(&self, st: &DownState) {
        self.pending_hint
            .store(st.send.pending(), Ordering::Release);
        self.closing_hint.store(st.closing, Ordering::Release);
    }

    /// True when the reactor's down pass has work here: buffered bytes to
    /// flush, or a requested close to complete. Lock-free.
    fn down_work(&self) -> bool {
        self.pending_hint.load(Ordering::Acquire) > 0 || self.closing_hint.load(Ordering::Acquire)
    }
}

/// [`DownSender`] feeding the reactor: never blocks, never fails while
/// the link is up (deadlock-freedom invariant — the coordinator must
/// always return to taking up-frames off the reactor's handoff).
struct EpollDownSender<D> {
    tx: Arc<ConnTx>,
    _marker: std::marker::PhantomData<fn(D)>,
}

impl<D: FrameCodec + Send> DownSender<D> for EpollDownSender<D> {
    fn send(&mut self, msg: &D) -> Result<(), TransportError> {
        let mut st = self.tx.state.lock().expect("down state poisoned");
        if st.closing {
            return Err(TransportError::Closed);
        }
        st.send
            .frame_with(|b| encode_down(msg, b))
            .map_err(TransportError::Io)?;
        self.tx.publish(&st);
        drop(st);
        self.tx.waker.wake();
        Ok(())
    }

    fn close(&mut self) {
        let mut st = self.tx.state.lock().expect("down state poisoned");
        st.closing = true;
        self.tx.publish(&st);
        drop(st);
        self.tx.waker.wake();
    }
}

/// Dropping the sender closes the link, mirroring the channel transport's
/// disconnect-on-drop. Without this, a coordinator that dies without
/// calling `close()` (a panic unwinding `coordinator_loop`) would leave
/// every cleanly-finished connection waiting for a down-side half-close
/// that never comes — and the reactor parked in `epoll_wait` forever.
impl<D> Drop for EpollDownSender<D> {
    fn drop(&mut self) {
        // Never panic in drop (we may already be unwinding): a poisoned
        // lock still closes the link.
        let mut st = match self.tx.state.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        st.closing = true;
        self.tx.publish(&st);
        drop(st);
        self.tx.waker.wake();
    }
}

/// One site connection from the coordinator reactor's point of view.
struct CoordConn {
    stream: TcpStream,
    /// Site id within its coordinator's deployment (flat: global id;
    /// tree: the member index within the group).
    site: usize,
    /// Which `UpLink` this connection reports into (flat: 0; tree: the
    /// group index).
    queue: usize,
    recv: RecvBuf,
    tx: Arc<ConnTx>,
    /// No more up-frames will be delivered (Eof/Fault seen, peer gone, or
    /// coordinator's receiver dropped).
    up_done: bool,
    /// Our write half is shut (clean close handshake or teardown).
    write_shut: bool,
    registered: bool,
    reg_read: bool,
    reg_write: bool,
    dead: bool,
}

impl CoordConn {
    /// Wraps one accepted site connection, reporting as `site` into
    /// `UpLink` `queue`, together with the down sender the coordinator
    /// writes to it through.
    fn new<D: FrameCodec + Send + 'static>(
        stream: TcpStream,
        site: usize,
        queue: usize,
        waker: &Arc<Waker>,
    ) -> (CoordConn, Box<dyn DownSender<D>>) {
        let tx = ConnTx::new(Arc::clone(waker));
        let down = Box::new(EpollDownSender::<D> {
            tx: Arc::clone(&tx),
            _marker: std::marker::PhantomData,
        });
        let conn = CoordConn {
            stream,
            site,
            queue,
            recv: RecvBuf::new(),
            tx,
            up_done: false,
            write_shut: false,
            registered: false,
            reg_read: false,
            reg_write: false,
            dead: false,
        };
        (conn, down)
    }
}

/// One coordinator's up path as the reactor sees it: the handoff into
/// its loop and the credit pool its sites draw on.
struct UpLink<U> {
    tx: mpsc::Sender<(usize, UpFrame<U>)>,
    credits: Arc<CreditPool>,
}

impl<U> UpLink<U> {
    /// A link over a fresh unbounded channel, whose receiving end returns
    /// each BATCH frame's credit as the coordinator takes it: the credits
    /// are the bound, so a `send` never blocks the reactor.
    fn new(credits: Arc<CreditPool>) -> (UpLink<U>, UpRx<U>) {
        let (tx, rx) = mpsc::channel();
        let rx = UpRx::with_credits(rx, Arc::clone(&credits));
        (UpLink { tx, credits }, rx)
    }
}

/// The reactor owns every `UpLink`, so however it exits (done, error,
/// panic) the pools stop gating: credits still in flight then have no
/// one left to return them.
impl<U> Drop for UpLink<U> {
    fn drop(&mut self) {
        self.credits.close();
    }
}

/// Hands one decoded frame to the connection's coordinator without
/// waiting for it; a BATCH frame's credit comes back when the coordinator
/// takes the frame ([`UpRx::recv`]). Any non-batch frame ends the up
/// path; a fault (or an orphaned handoff) tears the whole connection down
/// so a still-streaming peer errors out promptly, and closes the credit
/// pool, whose credits that connection may hold.
fn deliver<U>(c: &mut CoordConn, ups: &[UpLink<U>], frame: UpFrame<U>) {
    let up = &ups[c.queue];
    let batch = matches!(frame, UpFrame::Batch { .. });
    let broken = matches!(frame, UpFrame::Fault(_));
    let orphaned = up.tx.send((c.site, frame)).is_err();
    if !batch || orphaned {
        c.up_done = true;
    }
    if broken || orphaned {
        up.credits.close();
        let mut st = c.tx.state.lock().expect("down state poisoned");
        st.send.clear();
        st.closing = true;
        c.tx.publish(&st);
        drop(st);
        let _ = c.stream.shutdown(Shutdown::Both);
        c.write_shut = true;
    }
}

/// Performs one read on `c` and delivers every up-frame it completed.
///
/// One read, not a read-until-`WouldBlock` loop: under steady input that
/// loop never ends, and the reactor's down-flush pass starves. The reactor
/// is level-triggered, so whatever this call leaves in the kernel buffer
/// is reported again on the next pass.
fn service_read<U: FrameCodec>(c: &mut CoordConn, ups: &[UpLink<U>]) {
    let n = loop {
        match c.recv.fill_from(&mut (&c.stream)) {
            Ok(n) => break n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => {
                deliver(c, ups, UpFrame::Fault(format!("read error: {e}")));
                return;
            }
        }
    };
    loop {
        let frame: UpFrame<U> = match c.recv.next_frame() {
            Ok(None) => break,
            Ok(Some(payload)) => decode_up::<U>(payload),
            Err(e) => UpFrame::Fault(format!("read error: {e}")),
        };
        deliver(c, ups, frame);
        if c.up_done {
            return;
        }
    }
    if n == 0 {
        // Same split as `FramedReader`: EOF at a frame boundary is a
        // premature-close fault, EOF mid-frame a read error.
        let frame = if c.recv.mid_frame() {
            UpFrame::Fault("read error: connection closed mid-frame".into())
        } else {
            UpFrame::Fault("connection closed before EOF frame".into())
        };
        deliver(c, ups, frame);
    }
}

/// Flushes the connection's buffered down-traffic; performs the write
/// half-close once `close()` was requested and the buffer drained; tears
/// the connection down on write errors (a closed link is not a run error
/// — the site may legitimately be gone).
fn flush_conn_downs(c: &mut CoordConn) {
    let mut st = c.tx.state.lock().expect("down state poisoned");
    if c.write_shut {
        st.send.clear();
        c.tx.publish(&st);
        return;
    }
    if !st.send.is_empty() && st.send.flush_to(&mut (&c.stream)).is_err() {
        st.send.clear();
        st.closing = true;
        c.tx.publish(&st);
        drop(st);
        let _ = c.stream.shutdown(Shutdown::Both);
        c.write_shut = true;
        return;
    }
    c.tx.publish(&st);
    if st.closing && st.send.is_empty() {
        drop(st);
        let _ = c.stream.shutdown(Shutdown::Write);
        c.write_shut = true;
    }
}

/// The coordinator-side event loop: one thread multiplexing every site
/// connection. Decoded up-frames are handed to [`coordinator_loop`] (or
/// the aggregators) over the unbounded channels of `ups`; down-frames
/// queued by [`EpollDownSender`]s flush on write readiness. Exits once
/// every connection has completed both directions; dropping the
/// connections closes the sockets, and dropping `ups` closes the credit
/// pools, so even an abnormal exit releases the sites.
fn coord_reactor<U: FrameCodec>(
    mut conns: Vec<CoordConn>,
    ups: Vec<UpLink<U>>,
    mut wake_rx: WakeRx,
) -> Result<(), RuntimeError> {
    use std::os::fd::AsRawFd;
    let poller = Poller::new().map_err(|e| io_runtime_err("creating coordinator epoll", &e))?;
    poller
        .register(wake_rx.raw_fd(), WAKE_TOKEN, true, false)
        .map_err(|e| io_runtime_err("registering coordinator waker", &e))?;
    for (i, c) in conns.iter_mut().enumerate() {
        poller
            .register(c.stream.as_raw_fd(), i as u64, true, false)
            .map_err(|e| io_runtime_err("registering site connection", &e))?;
        c.registered = true;
        c.reg_read = true;
        c.reg_write = false;
    }
    let mut live = conns.len();
    let mut events: Vec<PollEvent> = Vec::new();
    while live > 0 {
        events.clear();
        // Bounded wait, not -1: the waker's drain ordering makes lost
        // wakeups impossible (see `WakeRx::drain`), but a periodic pass
        // over the connections is cheap insurance that queued down
        // sends/closes are picked up even if a wakeup ever went missing.
        poller
            .wait(&mut events, 250)
            .map_err(|e| io_runtime_err("coordinator epoll_wait", &e))?;
        let mut woke = false;
        for ev in &events {
            if ev.token == WAKE_TOKEN {
                woke = true;
                continue;
            }
            let Some(c) = conns.get_mut(ev.token as usize) else {
                continue;
            };
            if c.dead {
                continue;
            }
            if ev.readable && !c.up_done {
                service_read(c, &ups);
            }
            if ev.hangup && c.up_done && !c.write_shut {
                // Peer fully gone while we only held the write half: the
                // read path can no longer observe it, so tear down here.
                let mut st = c.tx.state.lock().expect("down state poisoned");
                st.send.clear();
                st.closing = true;
                c.tx.publish(&st);
                drop(st);
                let _ = c.stream.shutdown(Shutdown::Both);
                c.write_shut = true;
            }
        }
        if woke {
            wake_rx.drain();
        }
        for (i, c) in conns.iter_mut().enumerate() {
            if c.dead {
                continue;
            }
            // Idle fast path: no buffered bytes and no close requested
            // (per the lock-free hints the senders publish), so skip the
            // mutex entirely — at k in the thousands this pass would
            // otherwise take O(k) lock acquisitions per wakeup.
            if !c.write_shut && c.tx.down_work() {
                flush_conn_downs(c);
            }
            if c.up_done && c.write_shut {
                if c.registered {
                    let _ = poller.deregister(c.stream.as_raw_fd());
                }
                c.registered = false;
                c.dead = true;
                live -= 1;
                continue;
            }
            let want_r = !c.up_done;
            let want_w = !c.write_shut && c.tx.pending_hint.load(Ordering::Acquire) > 0;
            if c.registered && (want_r, want_w) == (c.reg_read, c.reg_write) {
                continue;
            }
            if !want_r && !want_w {
                if c.registered && poller.deregister(c.stream.as_raw_fd()).is_ok() {
                    c.registered = false;
                }
                continue;
            }
            let ok = if c.registered {
                poller
                    .modify(c.stream.as_raw_fd(), i as u64, want_r, want_w)
                    .is_ok()
            } else {
                poller
                    .register(c.stream.as_raw_fd(), i as u64, want_r, want_w)
                    .is_ok()
            };
            if ok {
                c.registered = true;
                c.reg_read = want_r;
                c.reg_write = want_w;
            }
        }
    }
    Ok(())
}

// ------------------------------------------------------------- wiring

/// How many connects the `wire_sites` connector may run ahead of its
/// accept loop. std's `TcpListener` listens with a backlog of 128; once
/// more handshakes than that are queued, the kernel drops SYNs and each
/// dropped client retries only after a second.
const CONNECT_AHEAD: usize = 64;

/// Connects `k` site sockets to `addr` while accepting them on
/// `listener`, performing the `HELLO` handshake on each. Returns the site
/// ends (in site order) and the coordinator ends (indexed by the id each
/// `HELLO` declared). All sockets come back nonblocking with Nagle off.
fn wire_sites(
    listener: &TcpListener,
    addr: SocketAddr,
    k: usize,
) -> Result<(Vec<TcpStream>, Vec<TcpStream>), RuntimeError> {
    // One token per connect, taken back per accept: the connector stays
    // at most `CONNECT_AHEAD` handshakes ahead of the listen backlog.
    let (ahead_tx, ahead_rx) = mpsc::sync_channel::<()>(CONNECT_AHEAD);
    let connector = thread::spawn(move || -> io::Result<Vec<TcpStream>> {
        let mut streams = Vec::with_capacity(k);
        for id in 0..k {
            if ahead_tx.send(()).is_err() {
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionAborted,
                    "accept loop gave up",
                ));
            }
            // Bounded connect: if the accept side errors out the join
            // below cannot hang on a never-completing handshake.
            let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(10))?;
            stream.set_nodelay(true)?;
            write_hello(&stream, id)?;
            stream.set_nonblocking(true)?;
            streams.push(stream);
        }
        Ok(streams)
    });
    let mut accept_err: Option<RuntimeError> = None;
    let mut accepted: Vec<Option<TcpStream>> = (0..k).map(|_| None).collect();
    for _ in 0..k {
        let stream = match listener.accept() {
            Ok((s, _peer)) => s,
            Err(e) => {
                accept_err = Some(io_runtime_err("accepting site connection", &e));
                break;
            }
        };
        // Err only once the connector is gone: nothing left to release.
        let _ = ahead_rx.recv();
        let r = stream
            .set_nodelay(true)
            .map_err(|e| io_runtime_err("configuring site connection", &e))
            .and_then(|()| read_hello(&stream))
            .and_then(|site| {
                if site >= k {
                    Err(RuntimeError::Transport(format!(
                        "HELLO for site {site} but k = {k}"
                    )))
                } else if accepted[site].is_some() {
                    Err(RuntimeError::Transport(format!(
                        "duplicate HELLO for site {site}"
                    )))
                } else {
                    Ok(site)
                }
            })
            .and_then(|site| {
                stream
                    .set_nonblocking(true)
                    .map_err(|e| io_runtime_err("configuring site connection", &e))?;
                Ok(site)
            });
        match r {
            Ok(site) => accepted[site] = Some(stream),
            Err(e) => {
                accept_err = Some(e);
                break;
            }
        }
    }
    // Join the connector before surfacing accept errors: its sockets must
    // not leak, and a failed accept loop usually means it failed too.
    // Dropping the tokens first releases a connector waiting for one.
    drop(ahead_rx);
    let connected = connector
        .join()
        .map_err(|_| RuntimeError::Transport("site connector thread panicked".into()))?;
    if let Some(e) = accept_err {
        return Err(e);
    }
    let site_streams = connected.map_err(|e| io_runtime_err("connecting site sockets", &e))?;
    let coord_streams = accepted
        .into_iter()
        .map(|s| s.expect("all k slots filled above"))
        .collect();
    Ok((site_streams, coord_streams))
}

// -------------------------------------------------------------- engine

/// Runs a full flat deployment on the event-driven engine: `k` site
/// connections over loopback TCP, multiplexed onto `EPOLL_WORKERS`
/// site event loops plus one coordinator reactor — thread count is O(1)
/// in `k`, so k in the thousands runs on one box.
///
/// Protocol behavior and [`Metrics`] accounting are identical to
/// [`crate::engine::run_threads`], and so is the meaning of
/// `cfg.queue_capacity`: it bounds the batches between the sites and the
/// coordinator, here counted as credits from encode to coordinator.
/// `feeds[i]` is site `i`'s partition of the stream as a nonblocking
/// [`ItemFeed`].
pub fn run_epoll<S, C>(
    sites: Vec<S>,
    mut coordinator: C,
    feeds: Vec<Box<dyn ItemFeed>>,
    cfg: &RuntimeConfig,
) -> Result<RunOutput<S, C>, RuntimeError>
where
    S: SiteNode + Send,
    S::Up: FrameCodec + Send + 'static,
    S::Down: FrameCodec + Send + 'static,
    C: CoordinatorNode<Up = S::Up, Down = S::Down> + Send,
{
    let k = sites.len();
    assert!(k >= 1, "need at least one site");
    assert_eq!(feeds.len(), k, "one feed per site");
    let _ = raise_nofile_limit();

    let listener = TcpListener::bind((std::net::Ipv4Addr::LOCALHOST, 0))
        .map_err(|e| io_runtime_err("bind loopback listener", &e))?;
    let addr = listener
        .local_addr()
        .map_err(|e| RuntimeError::Transport(e.to_string()))?;
    let (site_streams, coord_streams) = wire_sites(&listener, addr, k)?;

    let (site_wakers, site_wake_rxs) = site_wakers(k)?;
    let (up, up_rx) = UpLink::new(CreditPool::new(cfg.queue_capacity, site_wakers));
    let (waker, wake_rx) = wake_pair().map_err(|e| io_runtime_err("creating reactor waker", &e))?;
    let mut conns = Vec::with_capacity(k);
    let mut downs = Vec::with_capacity(k);
    for (site, stream) in coord_streams.into_iter().enumerate() {
        let (conn, down) = CoordConn::new::<S::Down>(stream, site, 0, &waker);
        conns.push(conn);
        downs.push(down);
    }
    let coord_ep = CoordEndpoint { up: up_rx, downs };
    let tasks: Vec<SiteTask<S>> = sites
        .into_iter()
        .zip(site_streams)
        .zip(feeds)
        .enumerate()
        .map(|(i, ((site, stream), feed))| {
            let core = SiteCore::new(site, cfg);
            SiteTask::new(i, core, feed, stream, Arc::clone(&up.credits))
        })
        .collect();

    let (reactor_res, coord_res, site_res) = thread::scope(|scope| {
        let reactor = scope.spawn(move || coord_reactor::<S::Up>(conns, vec![up], wake_rx));
        let coord = scope.spawn(|| {
            let metrics = coordinator_loop(&mut coordinator, coord_ep)?;
            Ok::<_, RuntimeError>(metrics)
        });
        let site_res = run_site_pool(tasks, site_wake_rxs);
        (reactor.join(), coord.join(), site_res)
    });

    // Deterministic error priority, matching run_threads: panicking site
    // by index, then the coordinator, then reactor/site transport errors.
    let mut slots: Vec<Option<Result<(S, Metrics), RuntimeError>>> = (0..k).map(|_| None).collect();
    for (global, res) in site_res {
        slots[global] = Some(res);
    }
    for (i, slot) in slots.iter().enumerate() {
        if matches!(slot, None | Some(Err(RuntimeError::SitePanicked(_)))) {
            return Err(RuntimeError::SitePanicked(i));
        }
    }
    let coord_metrics = coord_res.map_err(|_| RuntimeError::CoordinatorPanicked)??;
    reactor_res.map_err(|_| RuntimeError::Transport("coordinator reactor panicked".into()))??;
    let mut metrics = coord_metrics;
    let mut final_sites = Vec::with_capacity(k);
    for slot in slots {
        let (site, site_metrics) = slot.expect("checked above")?;
        metrics.merge(&site_metrics);
        final_sites.push(site);
    }
    Ok(RunOutput {
        sites: final_sites,
        coordinator,
        metrics,
    })
}

/// Runs a two-level fan-in tree on the event-driven engine: all `g·k`
/// site connections share one listener and one coordinator-side reactor
/// (HELLO ids are global, `gi·k + i`), the site protocol steps run on the
/// `EPOLL_WORKERS` loop pool, and each group's aggregator takes frames
/// off its own handoff while the group's sites draw on its own credit
/// pool (`queue_capacity` batches), so the reactor never waits on a slow
/// aggregator. The aggregator→root hop stays
/// on the blocking socket halves of [`crate::tcp`] (one reader thread per
/// link), since `g` links is a fan-in a thread per link handles fine; its
/// [`SyncMsg`] frames cross real sockets like every site frame.
///
/// Semantics (shutdown ordering, sync cadence, metrics accounting, error
/// priority) match [`crate::tree::run_tree_nodes`] on the threads
/// substrate; `feeds[gi][i]` is the nonblocking input partition for site
/// `i` of group `gi`.
#[allow(clippy::type_complexity)]
pub fn run_tree_epoll<S, A>(
    s: usize,
    topo: &TreeTopology,
    mut mk_site: impl FnMut(usize, usize) -> S,
    mut mk_aggregator: impl FnMut(usize) -> A,
    feeds: Vec<Vec<Box<dyn ItemFeed>>>,
    cfg: &RuntimeConfig,
) -> Result<TreeOutput, RuntimeError>
where
    S: SiteNode + Send,
    S::Up: FrameCodec + Send + 'static,
    S::Down: FrameCodec + Send + 'static,
    A: CoordinatorNode<Up = S::Up, Down = S::Down> + SampleSource + Send,
{
    let (g, k) = (topo.groups, topo.k_per_group);
    assert!(g >= 1 && k >= 1, "need at least one site per group");
    assert_eq!(feeds.len(), g, "one feed block per group");
    check_sync_fits_frame(s)?;
    let _ = raise_nofile_limit();

    let bind = |what: &str| -> Result<(TcpListener, SocketAddr), RuntimeError> {
        let listener = TcpListener::bind((std::net::Ipv4Addr::LOCALHOST, 0))
            .map_err(|e| io_runtime_err(&format!("bind {what} listener"), &e))?;
        let addr = listener
            .local_addr()
            .map_err(|e| RuntimeError::Transport(e.to_string()))?;
        Ok((listener, addr))
    };
    let (site_listener, site_addr) = bind("site")?;
    let (site_streams, coord_streams) = wire_sites(&site_listener, site_addr, g * k)?;

    // One credit pool and handoff per aggregator, matching the threads
    // tree's per-group channel bound; one reactor (and one waker)
    // multiplexing every group's connections.
    let (site_wakers, site_wake_rxs) = site_wakers(g * k)?;
    let (waker, wake_rx) = wake_pair().map_err(|e| io_runtime_err("creating reactor waker", &e))?;
    let mut ups: Vec<UpLink<S::Up>> = Vec::with_capacity(g);
    let mut up_rxs = Vec::with_capacity(g);
    for _ in 0..g {
        let credits = CreditPool::new(cfg.queue_capacity, Arc::clone(&site_wakers));
        let (up, rx) = UpLink::new(credits);
        ups.push(up);
        up_rxs.push(rx);
    }
    let mut conns = Vec::with_capacity(g * k);
    let mut group_downs: Vec<Vec<Box<dyn DownSender<S::Down>>>> =
        (0..g).map(|_| Vec::with_capacity(k)).collect();
    for (global, stream) in coord_streams.into_iter().enumerate() {
        let (gi, i) = (global / k, global % k);
        let (conn, down) = CoordConn::new(stream, i, gi, &waker);
        conns.push(conn);
        group_downs[gi].push(down);
    }
    let agg_eps: Vec<CoordEndpoint<S::Up, S::Down>> = up_rxs
        .into_iter()
        .zip(group_downs)
        .map(|(up, downs)| CoordEndpoint { up, downs })
        .collect();

    let (root_listener, root_addr) = bind("root")?;
    let mut root_links = Vec::with_capacity(g);
    for gi in 0..g {
        let link = connect_site(root_addr, gi)
            .map_err(|e| RuntimeError::Transport(format!("connect group {gi} root link: {e}")))?;
        root_links.push(link);
    }
    let root_ep = accept_sites::<SyncMsg, NoDown>(&root_listener, g, cfg.queue_capacity)?;

    let mut tasks = Vec::with_capacity(g * k);
    let mut site_iter = site_streams.into_iter();
    for (gi, group_feeds) in feeds.into_iter().enumerate() {
        assert_eq!(group_feeds.len(), k, "one feed per site");
        for (i, feed) in group_feeds.into_iter().enumerate() {
            let stream = site_iter.next().expect("wire_sites returned g*k streams");
            let (global, credits) = (gi * k + i, Arc::clone(&ups[gi].credits));
            let core = SiteCore::new(mk_site(gi, i), cfg);
            tasks.push(SiteTask::new(global, core, feed, stream, credits));
        }
    }

    type AggRes = Result<(Metrics, GroupStats), RuntimeError>;
    let (reactor_res, agg_res, root_res, site_res) = thread::scope(|scope| {
        let reactor = scope.spawn(move || coord_reactor::<S::Up>(conns, ups, wake_rx));
        let mut agg_handles: Vec<thread::ScopedJoinHandle<'_, AggRes>> = Vec::with_capacity(g);
        for (gi, (coord_ep, root_link)) in agg_eps.into_iter().zip(root_links).enumerate() {
            let mut aggregator = mk_aggregator(gi);
            let sync_every = topo.sync_every;
            agg_handles.push(scope.spawn(move || {
                aggregator_loop(&mut aggregator, coord_ep, root_link, gi, sync_every)
            }));
        }
        let root = scope.spawn(move || root_loop(root_ep));
        let site_res = run_site_pool(tasks, site_wake_rxs);
        let agg_res: Vec<_> = agg_handles.into_iter().map(|h| h.join()).collect();
        (reactor.join(), agg_res, root.join(), site_res)
    });

    // Deterministic error priority, matching the threads tree: panicking sites
    // by global index, then aggregators, then the root; then the reactor
    // (an FdExhausted there is the root cause of any downstream faults),
    // then transport errors tier by tier.
    let mut slots: Vec<Option<Result<(S, Metrics), RuntimeError>>> =
        (0..g * k).map(|_| None).collect();
    for (global, res) in site_res {
        slots[global] = Some(res);
    }
    for (i, slot) in slots.iter().enumerate() {
        if matches!(slot, None | Some(Err(RuntimeError::SitePanicked(_)))) {
            return Err(RuntimeError::SitePanicked(i));
        }
    }
    for (gi, res) in agg_res.iter().enumerate() {
        if res.is_err() {
            return Err(RuntimeError::AggregatorPanicked(gi));
        }
    }
    let root_out = root_res.map_err(|_| RuntimeError::RootPanicked)?;
    reactor_res.map_err(|_| RuntimeError::Transport("tree reactor panicked".into()))??;

    let mut metrics = Metrics::new();
    for slot in slots {
        let (_site, site_metrics) = slot.expect("checked above")?;
        metrics.merge(&site_metrics);
    }
    let mut group_stats = Vec::with_capacity(g);
    for res in agg_res {
        let (agg_metrics, stats) = res.expect("panics handled above")?;
        metrics.merge(&agg_metrics);
        group_stats.push(stats);
    }
    let (group_samples, sync_log) = root_out?;
    let parts: Vec<&[Keyed]> = group_samples.iter().map(Vec::as_slice).collect();
    let root_sample = merge_samples(&parts, s);
    Ok(TreeOutput {
        root_sample,
        group_samples,
        metrics,
        group_stats,
        sync_log,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dwrs_core::swor::wire::WireError;
    use dwrs_sim::{Meter, Outbox};
    use std::time::Instant;

    /// The engine unit tests' toy protocol, given a wire encoding (u64 LE)
    /// so it can cross the framed transport: sites forward every item id;
    /// the coordinator broadcasts a counter every 3 receipts.
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
    impl FrameCodec for Up {
        fn encode(&self, buf: &mut Vec<u8>) {
            buf.extend_from_slice(&self.0.to_le_bytes());
        }
        fn decode(buf: &[u8]) -> Result<(Self, usize), WireError> {
            let bytes: [u8; 8] = buf
                .get(..8)
                .ok_or(WireError::Truncated)?
                .try_into()
                .expect("8 bytes sliced");
            Ok((Up(u64::from_le_bytes(bytes)), 8))
        }
    }
    impl FrameCodec for Down {
        fn encode(&self, buf: &mut Vec<u8>) {
            buf.extend_from_slice(&self.0.to_le_bytes());
        }
        fn decode(buf: &[u8]) -> Result<(Self, usize), WireError> {
            let bytes: [u8; 8] = buf
                .get(..8)
                .ok_or(WireError::Truncated)?
                .try_into()
                .expect("8 bytes sliced");
            Ok((Down(u64::from_le_bytes(bytes)), 8))
        }
    }

    #[derive(Debug)]
    struct EchoSite {
        seen_down: u64,
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
    fn feeds(n: u64, k: usize) -> Vec<Box<dyn ItemFeed>> {
        (0..k as u64)
            .map(|site| {
                let part = (site..n).step_by(k).map(Item::unit).collect();
                Box::new(VecFeed::new(part)) as Box<dyn ItemFeed>
            })
            .collect()
    }

    fn echo_sites(k: usize) -> Vec<EchoSite> {
        (0..k).map(|_| EchoSite { seen_down: 0 }).collect()
    }

    #[test]
    fn echo_protocol_full_accounting() {
        // Same assertions as the threaded engine's unit test: exact
        // message counts and every broadcast drained before shutdown.
        let out = run_epoll(
            echo_sites(2),
            EchoCoord { received: 0 },
            feeds(9, 2),
            &RuntimeConfig::default(),
        )
        .unwrap();
        assert_eq!(out.coordinator.received, 9);
        assert_eq!(out.metrics.up_total, 9);
        assert_eq!(out.metrics.down_total, 6, "3 broadcasts × 2 sites");
        assert_eq!(out.metrics.broadcast_events, 3);
        for s in &out.sites {
            assert_eq!(s.seen_down, 3);
        }
    }

    #[test]
    fn tiny_queue_and_batch_still_complete() {
        // queue_capacity 1 + batch_max 1 + down_poll_every 1 puts every
        // single message through the credit gate: one BATCH frame in
        // flight per worker at most, each returned only once the
        // coordinator has taken it.
        let cfg = RuntimeConfig::new()
            .with_batch_max(1)
            .with_queue_capacity(1)
            .with_down_poll_every(1);
        let out = run_epoll(
            echo_sites(4),
            EchoCoord { received: 0 },
            feeds(1000, 4),
            &cfg,
        )
        .unwrap();
        assert_eq!(out.coordinator.received, 1000);
        assert_eq!(out.metrics.up_total, 1000);
    }

    #[test]
    fn final_partial_batch_is_flushed() {
        let cfg = RuntimeConfig::new().with_batch_max(64);
        let out = run_epoll(echo_sites(1), EchoCoord { received: 0 }, feeds(7, 1), &cfg).unwrap();
        assert_eq!(out.coordinator.received, 7);
    }

    #[test]
    fn many_sites_multiplex_on_few_threads() {
        // More connections than event-loop threads by far: correctness of
        // the multiplexed scheduling, not throughput.
        let k = 64;
        let out = run_epoll(
            echo_sites(k),
            EchoCoord { received: 0 },
            feeds(6400, k),
            &RuntimeConfig::default(),
        )
        .unwrap();
        assert_eq!(out.coordinator.received, 6400);
        assert_eq!(out.metrics.up_total, 6400);
    }

    /// Site whose entire output arrives at end-of-stream (the window
    /// sampler's shape): the closing burst must be chunked through the
    /// framed transport in batch-sized flushes.
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
        let cfg = RuntimeConfig::new()
            .with_batch_max(8)
            .with_queue_capacity(2);
        let sites = vec![FinisherSite { burst: 100 }, FinisherSite { burst: 3 }];
        let out = run_epoll(sites, EchoCoord { received: 0 }, feeds(10, 2), &cfg).unwrap();
        assert_eq!(out.coordinator.received, 103);
        assert_eq!(out.metrics.up_total, 103);
    }

    /// One credit and one-message batches: the failure tests' second
    /// input, where the surviving sites sit parked on used-up credits
    /// when the failure strikes.
    fn one_credit() -> RuntimeConfig {
        RuntimeConfig::new()
            .with_batch_max(1)
            .with_queue_capacity(1)
    }

    /// Forwards every item, like [`EchoSite`], until it sees id 3.
    #[derive(Debug)]
    struct PanickingSite;
    impl SiteNode for PanickingSite {
        type Up = Up;
        type Down = Down;
        fn observe(&mut self, item: Item, out: &mut Vec<Up>) {
            if item.id == 3 {
                panic!("injected failure");
            }
            out.push(Up(item.id));
        }
        fn receive(&mut self, _msg: &Down) {}
    }

    #[test]
    fn site_panic_reported_not_hung() {
        // Under the (i % k) partition only site 1 ever sees id 3; the
        // panic is caught per step, pinned to the right site, and the
        // run unwinds instead of hanging the other tasks — also when the
        // dead connection's fault must reopen a used-up credit pool.
        for (cfg, n) in [(RuntimeConfig::default(), 10), (one_credit(), 1000)] {
            let sites = vec![PanickingSite, PanickingSite];
            let err = run_epoll(sites, EchoCoord { received: 0 }, feeds(n, 2), &cfg).unwrap_err();
            assert!(
                matches!(err, RuntimeError::SitePanicked(1)),
                "n = {n}: got {err:?}"
            );
        }
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
        // The dying coordinator drops its receiver; the reactor's
        // orphaned-send path tears every connection down and closes the
        // credit pool, releasing the still-streaming site tasks even
        // when they are parked on used-up credits.
        for (cfg, n) in [(RuntimeConfig::default(), 100), (one_credit(), 1000)] {
            let err = run_epoll(echo_sites(2), PanickingCoord, feeds(n, 2), &cfg).unwrap_err();
            assert!(
                matches!(err, RuntimeError::CoordinatorPanicked),
                "n = {n}: got {err:?}"
            );
        }
    }

    #[test]
    fn feed_pending_is_not_end_of_stream() {
        // A feed that interleaves Pending between frames must stall the
        // task, not terminate it: every item still arrives, in order.
        struct Stutter {
            frames: Vec<Vec<Item>>,
            gap: bool,
        }
        impl ItemFeed for Stutter {
            fn poll(&mut self) -> Feed {
                if self.gap {
                    self.gap = false;
                    return Feed::Pending;
                }
                match self.frames.pop() {
                    Some(f) => {
                        self.gap = true;
                        Feed::Frame(f)
                    }
                    None => Feed::Done,
                }
            }
        }
        let frames = (0..10u64)
            .rev()
            .map(|f| (0..10).map(|i| Item::unit(f * 10 + i)).collect())
            .collect();
        let feeds = vec![Box::new(Stutter { frames, gap: false }) as Box<dyn ItemFeed>];
        let out = run_epoll(
            echo_sites(1),
            EchoCoord { received: 0 },
            feeds,
            &RuntimeConfig::default(),
        )
        .unwrap();
        assert_eq!(out.coordinator.received, 100);
        assert_eq!(out.metrics.up_total, 100);
    }

    #[test]
    fn service_read_reads_once_per_pass() {
        // Regression: service_read used to read until WouldBlock, so under
        // steady input one connection kept the coordinator reactor from
        // its down-flush pass. A ~32 KiB burst of BATCH frames must take
        // more than one pass, and later passes must deliver the rest.
        use std::io::Write;
        let listener = TcpListener::bind((std::net::Ipv4Addr::LOCALHOST, 0)).unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        let frames = 40u64;
        let msgs: Vec<Up> = (0..100).map(Up).collect();
        let mut wire = Vec::new();
        for items in 0..frames {
            let mut payload = Vec::new();
            encode_batch(&msgs, items, &mut payload);
            wire.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            wire.extend_from_slice(&payload);
        }
        client.write_all(&wire).unwrap();
        // Wait until the whole burst sits in the server's receive buffer.
        let mut peek = vec![0u8; wire.len()];
        let deadline = Instant::now() + Duration::from_secs(10);
        while server.peek(&mut peek).unwrap_or(0) < wire.len() {
            assert!(Instant::now() < deadline, "burst never arrived");
            thread::sleep(Duration::from_millis(1));
        }

        let (waker, _wake_rx) = wake_pair().unwrap();
        let (mut conn, _down) = CoordConn::new::<Down>(server, 0, 0, &waker);
        // The handoff never blocks, so this thread can collect what one
        // pass delivered without a coordinator thread on the other end.
        let (up, rx) = UpLink::new(CreditPool::new(1, Vec::new().into()));
        let ups = [up];
        service_read::<Up>(&mut conn, &ups);
        let mut got: Vec<UpFrame<Up>> = std::iter::from_fn(|| rx.try_recv())
            .map(|(_, f)| f)
            .collect();
        assert!(
            !got.is_empty() && (got.len() as u64) < frames,
            "one pass delivered {} of {frames} frames",
            got.len()
        );
        for _ in 0..frames {
            service_read::<Up>(&mut conn, &ups);
            got.extend(std::iter::from_fn(|| rx.try_recv()).map(|(_, f)| f));
        }
        assert!(!conn.up_done);
        let want: Vec<UpFrame<Up>> = (0..frames)
            .map(|items| UpFrame::Batch {
                msgs: msgs.clone(),
                items,
            })
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn batch_credits_return_when_the_coordinator_takes_the_frame() {
        let listener = TcpListener::bind((std::net::Ipv4Addr::LOCALHOST, 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let _clients = [
            TcpStream::connect(addr).unwrap(),
            TcpStream::connect(addr).unwrap(),
        ];
        let (waker, _wake_rx) = wake_pair().unwrap();
        let conn = |site| CoordConn::new::<Down>(listener.accept().unwrap().0, site, 0, &waker);
        let ((mut a, _down_a), (mut b, _down_b)) = (conn(0), conn(1));
        let pool = CreditPool::new(4, Vec::new().into());
        let in_flight = || pool.in_flight.load(Ordering::Acquire);
        let (up, rx) = UpLink::new(Arc::clone(&pool));
        let ups = [up];

        // Three encoded batches, two of them read off the socket and
        // handed over: the handoff returns no credit, taking does.
        for _ in 0..3 {
            pool.take();
        }
        for items in 0..2 {
            let msgs = vec![Up(items)];
            deliver(&mut a, &ups, UpFrame::Batch { msgs, items });
        }
        assert_eq!(in_flight(), 3, "handing batches off returns no credit");
        for left in [2, 1] {
            assert!(matches!(rx.try_recv(), Some((0, UpFrame::Batch { .. }))));
            assert_eq!(in_flight(), left, "taking a batch returns its credit");
        }

        // Eof and Fault frames take no credit, so taking them returns none.
        deliver(&mut a, &ups, UpFrame::Eof);
        assert!(a.up_done);
        assert_eq!(rx.try_recv(), Some((0, UpFrame::Eof)));
        deliver(&mut b, &ups, UpFrame::Fault("boom".into()));
        assert!(
            b.up_done && b.write_shut,
            "a fault tears its connection down"
        );
        assert!(matches!(rx.try_recv(), Some((1, UpFrame::Fault(_)))));
        assert_eq!(in_flight(), 1);
        assert!(
            !pool.open.load(Ordering::Acquire),
            "a fault closes the pool"
        );

        // A coordinator that stops taking frames stops its pool gating.
        let pool = CreditPool::new(1, Vec::new().into());
        let (_up, rx) = UpLink::<Up>::new(Arc::clone(&pool));
        pool.take();
        assert!(pool.used_up());
        drop(rx);
        assert!(
            !pool.used_up(),
            "dropping the coordinator's end closes the pool"
        );
    }

    #[test]
    fn credit_pool_wakes_at_half_the_bound_and_stops_gating_once_closed() {
        let poller = Poller::new().unwrap();
        let (waker, mut wake_rx) = wake_pair().unwrap();
        poller
            .register(wake_rx.raw_fd(), WAKE_TOKEN, true, false)
            .unwrap();
        let mut woken = || {
            let mut events = Vec::new();
            poller.wait(&mut events, 0).unwrap();
            wake_rx.drain();
            !events.is_empty()
        };
        let pool = CreditPool::new(4, vec![waker].into());
        for _ in 0..4 {
            assert!(!pool.used_up());
            pool.take();
        }
        assert!(pool.used_up());
        pool.put();
        assert!(!pool.used_up(), "3 of 4 in flight");
        assert!(!woken(), "no wake above half the bound");
        pool.put();
        assert!(woken(), "the count reached half the bound");
        pool.put();
        pool.put();
        pool.put();
        assert!(!woken(), "one wake per fall to half the bound");
        assert_eq!(pool.in_flight.load(Ordering::Acquire), 0, "saturates at 0");

        for _ in 0..4 {
            pool.take();
        }
        pool.close();
        assert!(!pool.used_up(), "a closed pool never gates");
        assert!(woken(), "closing wakes parked workers");
    }

    #[test]
    fn wire_sites_at_k_1000_never_waits_on_a_syn_retry() {
        // The connector used to run ahead of the accept loop, which also
        // reads every HELLO; past the listen backlog of 128 queued
        // handshakes the kernel dropped SYNs, and each dropped client
        // retried after 1 s.
        let _ = raise_nofile_limit();
        for _ in 0..3 {
            let listener = TcpListener::bind((std::net::Ipv4Addr::LOCALHOST, 0)).unwrap();
            let addr = listener.local_addr().unwrap();
            let t0 = Instant::now();
            let (sites, coords) = wire_sites(&listener, addr, 1000).unwrap();
            let took = t0.elapsed();
            assert_eq!((sites.len(), coords.len()), (1000, 1000));
            assert!(
                took < Duration::from_secs(1),
                "k = 1000 wiring took {took:?}"
            );
        }
    }
}
