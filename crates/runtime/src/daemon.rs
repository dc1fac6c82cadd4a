//! The long-lived sampling daemon: a persistent, connection-accepting
//! coordinator process hosting many concurrent **named streams**.
//!
//! The batch engines ([`crate::run_scenario`]) run exactly one stream for
//! exactly `k` sites and exit at the final drain. The paper's
//! model, however, is *continuous monitoring*: the coordinator must hold a
//! valid weighted SWOR — and answer the application queries derived from
//! it — **at every time step**, not only at the end. [`Daemon`] is that
//! model as a process:
//!
//! * **Multi-tenant**: each stream is created by name
//!   ([`CtrlMsg::Create`]) with its own `k`, `s`, and application query,
//!   and runs an independent stock [`SworCoordinator`] on its own
//!   processor thread.
//! * **Attach / detach / reconnect**: sites join mid-run
//!   ([`CtrlMsg::Attach`]), may disconnect (a clean socket close at a
//!   frame boundary detaches the slot without faulting the stream — the
//!   deliberate difference from the engines, where a close before `Eof`
//!   is a fault), and may reattach later to resume. Reattached
//!   links are **replayed** the coordinator's current broadcast state
//!   (saturated levels, the epoch threshold) so a reconnecting site
//!   filters exactly as a continuously-connected one would.
//! * **Live queries while streams run** ([`CtrlMsg::Query`]): the
//!   connection that asks is answered on its own thread, under the
//!   stream's lock, which the processor holds for one command at a time,
//!   so every [`LiveSnapshot`] is taken between two commands, a
//!   well-defined instant of the stream — Theorem 3's "valid SWOR at every
//!   step" made observable.
//! * **Graceful shutdown**: [`Daemon::shutdown`] (or a
//!   [`CtrlMsg::Shutdown`] control frame) drains every stream with the
//!   same flush → `Eof` → drain discipline as the engines, returning each
//!   stream's final snapshot.
//!
//! Wire protocol: control frames are [`CtrlMsg`] / [`CtrlResp`] over the
//! standard `[u32 LE length][payload]` framing; after a successful attach
//! the same connection switches to the data-plane frames (`BATCH`/`EOF`
//! upstream, `DOWN` downstream) of the codec in [`crate::tcp`], shared
//! with the epoll engine. See `docs/DAEMON.md` for the operator guide and
//! byte-level layouts.

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use dwrs_core::ctrl::{
    snapshot_len, CtrlMsg, CtrlResp, LiveQueryKind, LiveSnapshot, MetricsReport, StreamMetrics,
};
use dwrs_core::framed::{FrameCodec, FramedReader, FramedWriter, MAX_FRAME_LEN};
use dwrs_core::swor::levels::epoch_threshold;
use dwrs_core::swor::{CoordStats, DownMsg, SworConfig, SworCoordinator, UpMsg};
use dwrs_core::{Item, Keyed};
use dwrs_sim::{swor_coordinator, CoordinatorNode, Meter, Metrics, Outbox, SiteNode};
use dwrs_stats::QuantileSketch;
use dwrs_telemetry::{
    summarize, Counter, Gauge, Histogram, Telemetry, TraceKind, TraceRing, DEFAULT_RING_CAPACITY,
    HISTOGRAM_EPS, METRIC_BROADCAST_EVENTS_TOTAL, METRIC_CONNECTIONS_TOTAL,
    METRIC_CTRL_ERRORS_TOTAL, METRIC_DOWN_MESSAGES_TOTAL, METRIC_ITEMS_TOTAL,
    METRIC_LIVE_QUERIES_TOTAL, METRIC_QUERY_LATENCY_NS, METRIC_SCRAPES_TOTAL,
    METRIC_SITES_ATTACHED, METRIC_STALE_EARLY_TOTAL, METRIC_STALE_REGULAR_TOTAL,
    METRIC_STREAMS_ACTIVE, METRIC_UP_MESSAGES_TOTAL, METRIC_WIRE_BYTES_TOTAL,
};

use crate::config::RuntimeConfig;
use crate::engine::SiteCore;
use crate::query::Query;
use crate::tcp::{decode_up, down_reader, tcp_batch_sender, tcp_down_sender};
use crate::transport::{BatchSender, UpFrame};
use crate::RuntimeError;

/// Daemon-wide configuration.
#[derive(Clone, Debug)]
pub struct DaemonConfig {
    /// Base seed; each stream's coordinator seed is derived from it and
    /// the stream name, so restarting the daemon reproduces a run.
    pub seed: u64,
    /// Bound (in commands) of each stream processor's queue — the same
    /// backpressure role as [`RuntimeConfig::queue_capacity`].
    pub queue_capacity: usize,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        Self {
            seed: 42,
            queue_capacity: 128,
        }
    }
}

/// Most site slots one stream may declare. A stream allocates its slot
/// state up front — a down link, a slot state and an items watermark per
/// slot, about 25 bytes each, so 25 MiB at this limit — and a `Create`
/// asking for more is refused before anything is allocated.
const MAX_STREAM_SITES: u32 = 1 << 20;

/// Largest effective sample size a stream may have: the full snapshot of
/// such a stream (epoch present) still fits one control frame, so
/// `current-sample` and the final drain can always be answered.
fn max_sample_size() -> usize {
    let entry = snapshot_len(1, true) - snapshot_len(0, true);
    // One tag byte precedes the snapshot in a `CtrlResp::Answer` frame.
    (MAX_FRAME_LEN as usize - 1 - snapshot_len(0, true)) / entry
}

/// Derives a stream's coordinator seed from the daemon seed and the
/// stream name (FNV-1a over the name, xor-folded with the base seed).
fn stream_seed(seed: u64, name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed;
    for b in name.as_bytes() {
        h = (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ------------------------------------------------------------- stream side

/// Lifecycle of one site slot within a stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SlotState {
    /// Never attached.
    Empty,
    /// A connection currently owns the slot.
    Attached,
    /// The connection went away without `Eof`; the slot may be resumed.
    Detached,
    /// The slot sent `Eof`; it is finished for good.
    Finished,
}

/// Commands serialized into a stream processor's queue: every change to
/// a stream's state. The processor applies each under the stream's lock,
/// and live reads take that lock too, so a query's answer or a scrape's
/// section reflects exactly the commands that preceded it.
enum StreamCmd {
    /// Phase 1 of attach: validate and claim the slot. The connection
    /// handler writes the `Attached` response on the socket *before*
    /// registering the down link (phase 2), so the processor can never
    /// race a broadcast onto the socket mid-response.
    Reserve {
        site: usize,
        reply: mpsc::SyncSender<Result<(bool, u64), String>>,
    },
    /// Phase 2 of attach: register the slot's down link and replay the
    /// coordinator's current broadcast state onto it.
    Link {
        site: usize,
        down: Box<dyn crate::transport::DownSender<DownMsg>>,
    },
    /// One decoded upstream batch with its stream-progress watermark.
    Up {
        site: usize,
        msgs: Vec<UpMsg>,
        items: u64,
    },
    /// The site finished its stream.
    Eof { site: usize },
    /// The connection went away without `Eof`; the slot may reattach.
    Detach { site: usize },
    /// Finish once no slot is attached; reply with the final snapshot.
    Drain {
        reply: mpsc::SyncSender<LiveSnapshot>,
    },
}

/// A stream's command sender plus a shared depth counter, so telemetry
/// can report each processor queue's instantaneous occupancy. The
/// counter is incremented on every successful send and decremented by
/// the processor as it dequeues — cheap relaxed atomics on both sides.
#[derive(Clone)]
struct CmdSender {
    tx: mpsc::SyncSender<StreamCmd>,
    depth: Arc<AtomicU64>,
}

impl CmdSender {
    fn send(&self, cmd: StreamCmd) -> Result<(), mpsc::SendError<StreamCmd>> {
        // ordering: Relaxed — `depth` is a statistics-only occupancy gauge;
        // nothing is published through it (the channel itself synchronizes
        // the command), and a momentarily stale reading is fine.
        self.depth.fetch_add(1, Ordering::Relaxed);
        let res = self.tx.send(cmd);
        if res.is_err() {
            // ordering: Relaxed — undo of the optimistic add above; the
            // command never entered the queue.
            self.depth.fetch_sub(1, Ordering::Relaxed);
        }
        res
    }
}

/// A lock that one writer holds for one command at a time and hands to
/// waiting readers between commands.
///
/// A plain `Mutex` is not fair: a writer that applies commands back to
/// back takes it again before a woken reader runs, so a saturated stream
/// could starve its live reads. Here a reader counts itself in `queued`
/// before it locks, and the writer, before each command, waits until as
/// many readers have had the lock as had queued by then. A lone reader
/// so waits out at most the command in progress when it queued; readers
/// may overtake one another, but each that does is one more read served
/// before the writer goes on. The writer waits for no more reads than
/// had queued before its command, so readers cannot starve it either.
struct Handoff<T> {
    cut: Mutex<Turns<T>>,
    /// Signalled by the reader that brings `served` up to `due`.
    readers_served: Condvar,
    /// Readers queued so far.
    queued: AtomicU64,
}

/// The guarded value and the reader count the writer waits on. Derefs to
/// the value.
struct Turns<T> {
    value: T,
    /// Readers that have had the lock so far.
    served: u64,
    /// The `served` count the writer needs before its next command.
    due: u64,
}

impl<T> Deref for Turns<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> DerefMut for Turns<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

impl<T> Handoff<T> {
    fn new(value: T) -> Self {
        Handoff {
            cut: Mutex::new(Turns {
                value,
                served: 0,
                due: 0,
            }),
            readers_served: Condvar::new(),
            queued: AtomicU64::new(0),
        }
    }

    /// The writer's lock for one command, granted once as many readers
    /// have had the lock as had queued before the call. `None` if a holder
    /// panicked.
    fn write(&self) -> Option<MutexGuard<'_, Turns<T>>> {
        // ordering: SeqCst — pairs with the SeqCst increment in `queue`: a
        // reader that queued before this load, in the single total order
        // of SeqCst operations, is counted in `due`.
        let due = self.queued.load(Ordering::SeqCst);
        let mut turns = self.cut.lock().ok()?;
        turns.due = due;
        self.readers_served
            .wait_while(turns, |t| t.served < t.due)
            .ok()
    }

    /// A reader's lock: queue, then lock. `None` if a holder panicked.
    fn read(&self) -> Option<MutexGuard<'_, Turns<T>>> {
        self.queue();
        self.lock_queued()
    }

    // The two halves of `read`, apart so a test can act between them.
    fn queue(&self) {
        // ordering: SeqCst — pairs with the SeqCst load in `write`.
        self.queued.fetch_add(1, Ordering::SeqCst);
    }

    fn lock_queued(&self) -> Option<MutexGuard<'_, Turns<T>>> {
        // A queued reader is counted as served even when the lock is
        // poisoned, so a writer waiting for it is not left waiting; the
        // counters stay valid whatever the panicked holder left undone.
        let (mut turns, poisoned) = match self.cut.lock() {
            Ok(turns) => (turns, false),
            Err(e) => (e.into_inner(), true),
        };
        turns.served += 1;
        if turns.served == turns.due {
            self.readers_served.notify_one();
        }
        (!poisoned).then_some(turns)
    }
}

/// The registry counters that mirror a stream's `Metrics` totals and its
/// coordinator's stale-message counts, in [`StreamCtrs::fold`]'s order.
const METERED: [&str; 6] = [
    METRIC_UP_MESSAGES_TOTAL,
    METRIC_DOWN_MESSAGES_TOTAL,
    METRIC_WIRE_BYTES_TOTAL,
    METRIC_BROADCAST_EVENTS_TOTAL,
    METRIC_STALE_REGULAR_TOTAL,
    METRIC_STALE_EARLY_TOTAL,
];

/// The daemon-registry handles a stream's processor and its live reads
/// update, resolved once at stream creation so neither touches the
/// registry lock.
struct StreamCtrs {
    /// The owning daemon's telemetry (its trace ring records drains).
    telemetry: Arc<Telemetry>,
    items: Arc<Counter>,
    live_queries: Arc<Counter>,
    sites_attached: Arc<Gauge>,
    streams_active: Arc<Gauge>,
    latency: Arc<Histogram>,
    metered: [Arc<Counter>; 6],
    /// What [`StreamCtrs::fold`] has added to `metered` so far.
    folded: [u64; 6],
}

impl StreamCtrs {
    fn new(telemetry: &Arc<Telemetry>) -> Self {
        let reg = &telemetry.registry;
        Self {
            telemetry: Arc::clone(telemetry),
            items: reg.counter(METRIC_ITEMS_TOTAL),
            live_queries: reg.counter(METRIC_LIVE_QUERIES_TOTAL),
            sites_attached: reg.gauge(METRIC_SITES_ATTACHED),
            streams_active: reg.gauge(METRIC_STREAMS_ACTIVE),
            latency: reg.histogram(METRIC_QUERY_LATENCY_NS),
            metered: METERED.map(|name| reg.counter(name)),
            folded: [0; 6],
        }
    }

    /// Adds whatever the stream metered, and the stale messages its
    /// coordinator counted, since the last fold to the registry. Called
    /// after every command, so data frames and attach replays alike reach
    /// the scrape.
    fn fold(&mut self, m: &Metrics, stats: &CoordStats) {
        let now = [
            m.up_total,
            m.down_total,
            m.up_bytes + m.down_bytes,
            m.broadcast_events,
            stats.stale_regular,
            stats.stale_early,
        ];
        for ((ctr, now), folded) in self.metered.iter().zip(now).zip(&mut self.folded) {
            if now > *folded {
                ctr.add(now - *folded);
                *folded = now;
            }
        }
    }
}

/// One named stream's state: written by its processor one command at a
/// time, read by the connections that query or scrape it, all under the
/// stream's [`Handoff`] lock.
struct StreamState {
    name: String,
    query: Query,
    /// Effective sample size (the query may inflate the scenario `s`).
    s_eff: usize,
    /// L1 duplication factor ℓ (1 for non-L1 streams).
    ell: u64,
    /// Output size for `rhh-so-far` (top candidates by weight).
    rhh_output: usize,
    /// The stream's own window length, when it is a sliding-window query.
    window_default: Option<u64>,
    coordinator: SworCoordinator,
    downs: Vec<Option<Box<dyn crate::transport::DownSender<DownMsg>>>>,
    slots: Vec<SlotState>,
    /// Per-slot stream-progress watermark (items observed, survives
    /// detach so a resumed slot keeps accumulating).
    slot_items: Vec<u64>,
    metrics: Metrics,
    /// This stream's structured-event ring (lifecycle, epochs,
    /// saturations), sharing its daemon's telemetry epoch so event
    /// timestamps are comparable across streams.
    trace: TraceRing,
    /// Per-stream live-query service latencies (nanoseconds); its count
    /// is the stream's live queries answered so far.
    latency: QuantileSketch,
    /// Bound of the processor's command queue.
    queue_capacity: u32,
    /// Shared occupancy counter for the command queue (see [`CmdSender`]).
    depth: Arc<AtomicU64>,
    /// Cached daemon-registry handles.
    ctrs: StreamCtrs,
}

impl StreamState {
    fn drain_complete(&self) -> bool {
        !self.slots.contains(&SlotState::Attached)
    }

    fn close_down(&mut self, site: usize) {
        if let Some(mut d) = self.downs[site].take() {
            d.close();
        }
    }

    /// The live-query kind that answers this stream's *own* query —
    /// the kind the final drain snapshot is reported as, so an L1
    /// stream drains to its weight estimate, a window stream to its
    /// window survivors, and so on.
    fn natural_kind(&self) -> LiveQueryKind {
        match self.query {
            Query::Swor => LiveQueryKind::CurrentSample,
            Query::L1 { .. } => LiveQueryKind::L1Now,
            Query::ResidualHh { .. } => LiveQueryKind::RhhSoFar,
            Query::SlidingWindow { .. } => LiveQueryKind::WindowNow,
        }
    }

    /// Builds the live answer at this instant. `arg` is the window length
    /// for `window-now` (0 = the stream's own window).
    fn live_snapshot(&self, kind: LiveQueryKind, arg: u64) -> Result<LiveSnapshot, String> {
        use dwrs_apps::live;
        let full = self.coordinator.sample();
        let items: u64 = self.slot_items.iter().sum();
        let u = live::sth_largest_key(&full, self.s_eff);
        let (estimate, sample) = match kind {
            LiveQueryKind::CurrentSample => (weight_sum(&full), full),
            LiveQueryKind::L1Now => (live::l1_estimate(self.s_eff, self.ell, u), full),
            LiveQueryKind::RhhSoFar => {
                let cands = live::rhh_candidates(&full, self.rhh_output);
                (weight_sum(&cands), cands)
            }
            LiveQueryKind::WindowNow => {
                let window = if arg > 0 {
                    arg
                } else {
                    self.window_default.ok_or_else(|| {
                        format!(
                            "window-now on a '{}' stream needs an explicit window length",
                            self.query.name()
                        )
                    })?
                };
                let survivors = live::window_survivors(&full, items, window);
                (weight_sum(&survivors), survivors)
            }
            LiveQueryKind::Stats => (0.0, Vec::new()),
        };
        Ok(LiveSnapshot {
            kind,
            items,
            epoch: self.coordinator.epoch(),
            u,
            estimate,
            ell: self.ell,
            sites_attached: count_state(&self.slots, SlotState::Attached),
            sites_eof: count_state(&self.slots, SlotState::Finished),
            up_msgs: self.metrics.up_total,
            down_msgs: self.metrics.down_total,
            up_bytes: self.metrics.up_bytes,
            down_bytes: self.metrics.down_bytes,
            broadcast_events: self.metrics.broadcast_events,
            stale_regular: self.coordinator.stats.stale_regular,
            stale_early: self.coordinator.stats.stale_early,
            sample,
        })
    }

    /// This stream's section of a telemetry scrape, with its `events`
    /// newest trace events.
    fn metrics_section(&mut self, events: u32) -> StreamMetrics {
        StreamMetrics {
            stream: self.name.clone(),
            query: self.query.name().to_string(),
            items: self.slot_items.iter().sum(),
            sites_attached: count_state(&self.slots, SlotState::Attached),
            sites_eof: count_state(&self.slots, SlotState::Finished),
            // A sender counts itself before it blocks on a full queue, so
            // the counter can pass the capacity the queue itself never
            // exceeds.
            // ordering: Relaxed — instantaneous gauge snapshot for a
            // metrics report; no ordering relationship is needed.
            queue_depth: (self.depth.load(Ordering::Relaxed) as u32).min(self.queue_capacity),
            queue_capacity: self.queue_capacity,
            queries: self.latency.count(),
            stale_regular: self.coordinator.stats.stale_regular,
            stale_early: self.coordinator.stats.stale_early,
            latency: summarize(&mut self.latency),
            events: self.trace.snapshot(events as usize),
        }
    }
}

/// Answers a live query on the asking connection's thread, under the
/// stream's lock; `None` if the stream's state is lost to a panic.
fn live_query(
    cut: &Handoff<StreamState>,
    kind: LiveQueryKind,
    arg: u64,
) -> Option<Result<LiveSnapshot, String>> {
    let mut st = cut.read()?;
    let t0 = Instant::now();
    let answer = st.live_snapshot(kind, arg);
    let nanos = t0.elapsed().as_nanos() as f64;
    st.latency.observe(nanos);
    st.ctrs.live_queries.inc();
    let latency = Arc::clone(&st.ctrs.latency);
    drop(st);
    // The registry histogram takes a lock of its own; observing it after
    // the guard drops keeps the stream lock a leaf.
    latency.observe(nanos);
    Some(answer)
}

fn weight_sum(sample: &[Keyed]) -> f64 {
    sample.iter().map(|kd| kd.item.weight).sum()
}

fn count_state(slots: &[SlotState], want: SlotState) -> u32 {
    slots.iter().filter(|s| **s == want).count() as u32
}

/// Routes one round's coordinator responses over the daemon's *optional*
/// down links. Metering follows the paper exactly as [`crate::engine`]'s
/// router: a unicast costs 1 message, a broadcast costs the configured
/// `k` — whether or not every slot currently has a live link (a detached
/// site would have been sent the message; it will be replayed the
/// resulting state on reattach).
fn route_live(
    outbox: &mut Outbox<DownMsg>,
    downs: &mut [Option<Box<dyn crate::transport::DownSender<DownMsg>>>],
    metrics: &mut Metrics,
    trace: &TraceRing,
) {
    let k = downs.len();
    let (unicasts, broadcasts) = outbox.take();
    for (to, msg) in unicasts {
        metrics.count_unicast(msg.kind(), msg.units(), msg.wire_bytes());
        if let Some(d) = downs[to].as_mut() {
            let _ = d.send(&msg);
        }
    }
    for msg in broadcasts {
        match &msg {
            DownMsg::UpdateEpoch { threshold } => {
                trace.record(TraceKind::EpochBroadcast, threshold.to_bits(), 0);
            }
            DownMsg::LevelSaturated { level } => {
                trace.record(TraceKind::Saturation, u64::from(*level), 0);
            }
        }
        metrics.count_broadcast(msg.kind(), msg.units(), msg.wire_bytes(), k);
        for d in downs.iter_mut().flatten() {
            let _ = d.send(&msg);
        }
    }
}

/// The per-stream processor loop: consumes the serialized command queue,
/// applying each command under the stream's lock, and exits after a
/// completed drain (or when the daemon is torn down and every command
/// sender is gone). It never holds the lock while it waits for a command,
/// so live reads see the state between two commands.
fn stream_processor(cut: Arc<Handoff<StreamState>>, rx: mpsc::Receiver<StreamCmd>) {
    let mut outbox = Outbox::new();
    let mut drain_reply: Option<mpsc::SyncSender<LiveSnapshot>> = None;
    while let Ok(cmd) = rx.recv() {
        let Some(mut guard) = cut.write() else {
            return;
        };
        let st: &mut StreamState = &mut guard;
        // ordering: Relaxed — metrics-only occupancy gauge; the `recv`
        // above already synchronized with the matching send.
        st.depth.fetch_sub(1, Ordering::Relaxed);
        match cmd {
            StreamCmd::Reserve { site, reply } => {
                let result = if site >= st.slots.len() {
                    Err(format!(
                        "site {site} out of range (stream has {} slots)",
                        st.slots.len()
                    ))
                } else {
                    match st.slots[site] {
                        SlotState::Attached => Err(format!("site {site} is already attached")),
                        SlotState::Finished => Err(format!("site {site} already sent Eof")),
                        prev => {
                            st.slots[site] = SlotState::Attached;
                            let resumed = prev == SlotState::Detached;
                            let kind = if resumed {
                                TraceKind::Reconnect
                            } else {
                                TraceKind::Attach
                            };
                            st.trace.record(kind, site as u64, st.slot_items[site]);
                            st.ctrs.sites_attached.add(1);
                            Ok((resumed, st.slot_items[site]))
                        }
                    }
                };
                let _ = reply.send(result);
            }
            StreamCmd::Link { site, down } => {
                st.downs[site] = Some(down);
                // Replay the coordinator's broadcast state so the fresh
                // link filters exactly as a continuously-connected site:
                // one LevelSaturated per saturated level, plus the current
                // epoch threshold. Metered as unicasts — they go to one
                // site, not all k.
                let mut replayed: Vec<DownMsg> = st
                    .coordinator
                    .snapshot()
                    .levels
                    .iter()
                    .filter(|l| l.saturated)
                    .map(|l| DownMsg::LevelSaturated { level: l.level })
                    .collect();
                if let Some(j) = st.coordinator.epoch() {
                    replayed.push(DownMsg::UpdateEpoch {
                        threshold: epoch_threshold(j, st.coordinator.config().r()),
                    });
                }
                for msg in replayed {
                    st.metrics
                        .count_unicast(msg.kind(), msg.units(), msg.wire_bytes());
                    if let Some(d) = st.downs[site].as_mut() {
                        let _ = d.send(&msg);
                    }
                }
            }
            StreamCmd::Up { site, msgs, items } => {
                st.slot_items[site] += items;
                for msg in msgs {
                    st.metrics
                        .count_up(msg.kind(), msg.units(), msg.wire_bytes());
                    CoordinatorNode::receive(&mut st.coordinator, site, msg, &mut outbox);
                    route_live(&mut outbox, &mut st.downs, &mut st.metrics, &st.trace);
                }
                st.ctrs.items.add(items);
            }
            StreamCmd::Eof { site } => {
                if st.slots[site] == SlotState::Attached {
                    st.ctrs.sites_attached.add(-1);
                }
                st.slots[site] = SlotState::Finished;
                st.trace
                    .record(TraceKind::Eof, site as u64, st.slot_items[site]);
                // Close this slot's down link now (a batch engine
                // closes all links at the end of the run; a daemon stream
                // has no end, so the per-site drain loop must terminate
                // here for the client's finish() to return).
                st.close_down(site);
            }
            StreamCmd::Detach { site } => {
                if st.slots[site] == SlotState::Attached {
                    st.slots[site] = SlotState::Detached;
                    st.ctrs.sites_attached.add(-1);
                    st.trace
                        .record(TraceKind::Detach, site as u64, st.slot_items[site]);
                }
                st.close_down(site);
            }
            StreamCmd::Drain { reply } => {
                drain_reply = Some(reply);
            }
        }
        // Registry totals are command-granular: whatever this command
        // metered is folded in before the next command is served.
        st.ctrs.fold(&st.metrics, &st.coordinator.stats);
        if let Some(reply) = drain_reply.take() {
            if st.drain_complete() {
                for site in 0..st.downs.len() {
                    st.close_down(site);
                }
                let snap = st.live_snapshot(st.natural_kind(), 0).unwrap_or_else(|_| {
                    // The natural kind never fails (a window stream
                    // has a default window); defensive fallback.
                    st.live_snapshot(LiveQueryKind::Stats, 0).unwrap()
                });
                let items: u64 = st.slot_items.iter().sum();
                st.trace.record(TraceKind::Drain, 0, items);
                st.ctrs.telemetry.trace.record(TraceKind::Drain, 0, items);
                st.ctrs.streams_active.add(-1);
                let _ = reply.send(snap);
                return;
            }
            drain_reply = Some(reply);
        }
    }
    // Every command sender is gone without a drain (daemon teardown
    // mid-stream): the stream is no longer live.
    if let Some(st) = cut.write() {
        st.ctrs.streams_active.add(-1);
    }
}

// ------------------------------------------------------------- daemon side

/// A handle to one stream: the command queue its processor serves, and
/// the lock its state is read under.
struct StreamHandle {
    cmd: CmdSender,
    cut: Arc<Handoff<StreamState>>,
    join: JoinHandle<()>,
}

/// State shared between the listener, connection handlers, and the
/// [`Daemon`] handle.
struct Shared {
    cfg: DaemonConfig,
    accepting: AtomicBool,
    streams: Mutex<HashMap<String, StreamHandle>>,
    /// Final snapshots of drained streams, in drain order — the daemon's
    /// run report.
    drained: Mutex<Vec<(String, LiveSnapshot)>>,
    /// Total streams ever created (drained streams stay counted).
    streams_created: AtomicU64,
    /// This daemon's registry and daemon-level trace ring, created at
    /// bind, so its epoch marks the daemon's start. Every recorder in the
    /// daemon writes here and nowhere else.
    telemetry: Arc<Telemetry>,
}

/// A running sampling daemon.
///
/// Binds a listener, then serves control connections until
/// [`Daemon::shutdown`] is called (from any thread — the handle is
/// `Sync`) or a [`CtrlMsg::Shutdown`] control frame arrives.
///
/// # Example
///
/// ```
/// use dwrs_core::ctrl::LiveQueryKind;
/// use dwrs_core::swor::SworConfig;
/// use dwrs_core::Item;
/// use dwrs_runtime::daemon::{AttachClient, CtrlClient, Daemon, DaemonConfig};
/// use dwrs_runtime::RuntimeConfig;
/// use dwrs_sim::swor_site;
///
/// let daemon = Daemon::bind("127.0.0.1:0", DaemonConfig::default()).unwrap();
/// let addr = daemon.local_addr();
///
/// // Create a stream and attach one site.
/// let mut ctrl = CtrlClient::connect(addr).unwrap();
/// ctrl.create("demo", 1, 8, "swor").unwrap();
/// let site = swor_site(&SworConfig::new(8, 1), 42, 0);
/// let mut client =
///     AttachClient::attach(addr, "demo", 0, site, &RuntimeConfig::default()).unwrap();
///
/// // Feed items, then query the live sample mid-run.
/// client.feed((0..1000).map(Item::unit)).unwrap();
/// client.finish().unwrap();
/// let snap = ctrl.snapshot("demo", LiveQueryKind::CurrentSample, 0).unwrap();
/// assert_eq!(snap.items, 1000);
/// assert_eq!(snap.sample.len(), 8);
///
/// let final_snap = ctrl.drain_stream("demo").unwrap();
/// assert_eq!(final_snap.sites_eof, 1);
/// daemon.shutdown();
/// ```
pub struct Daemon {
    addr: SocketAddr,
    shared: Arc<Shared>,
    listener_join: Mutex<Option<JoinHandle<()>>>,
}

impl std::fmt::Debug for Daemon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Daemon({})", self.addr)
    }
}

impl Daemon {
    /// Binds `addr` and starts accepting control connections.
    ///
    /// Raises `RLIMIT_NOFILE` soft → hard first (best effort): a daemon
    /// hosting thousands of attached sites holds one fd per data-plane
    /// connection, and the conservative default soft limit (often 1024)
    /// would otherwise cap the fleet long before memory does.
    pub fn bind(addr: impl ToSocketAddrs, cfg: DaemonConfig) -> io::Result<Daemon> {
        let _ = crate::reactor::raise_nofile_limit();
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shared = Arc::new(Shared {
            cfg,
            accepting: AtomicBool::new(true),
            streams: Mutex::new(HashMap::new()),
            drained: Mutex::new(Vec::new()),
            streams_created: AtomicU64::new(0),
            telemetry: Arc::new(Telemetry::new()),
        });
        let join = thread::spawn({
            let shared = Arc::clone(&shared);
            move || listener_loop(listener, shared, local)
        });
        Ok(Daemon {
            addr: local,
            shared,
            listener_join: Mutex::new(Some(join)),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, drains every stream (flush → `Eof` → drain
    /// discipline on each), and returns the final snapshots in drain
    /// order. Idempotent; safe to call from a signal-watcher thread while
    /// another thread blocks in [`Daemon::join`].
    pub fn shutdown(&self) -> Vec<(String, LiveSnapshot)> {
        let snaps = shutdown_impl(&self.shared, self.addr);
        let join = self.listener_join.lock().unwrap().take();
        if let Some(j) = join {
            let _ = j.join();
        }
        snaps
    }

    /// Blocks until the listener exits — i.e. until [`Daemon::shutdown`]
    /// is called from another thread or a [`CtrlMsg::Shutdown`] control
    /// frame arrives.
    pub fn join(&self) {
        let join = self.listener_join.lock().unwrap().take();
        if let Some(j) = join {
            let _ = j.join();
        }
    }

    /// Final snapshots of every stream drained so far (by control frame
    /// or shutdown), in drain order.
    pub fn drained(&self) -> Vec<(String, LiveSnapshot)> {
        self.shared.drained.lock().unwrap().clone()
    }
}

/// The shutdown path shared by [`Daemon::shutdown`] and the
/// [`CtrlMsg::Shutdown`] handler (which runs on a connection thread and
/// has no `Daemon` handle).
fn shutdown_impl(shared: &Shared, addr: SocketAddr) -> Vec<(String, LiveSnapshot)> {
    // ordering: AcqRel — the swap makes exactly one shutdown caller see
    // `true` and run the drain; Release publishes everything before the
    // shutdown decision to the admission-path Acquire loads, and Acquire
    // pairs with any prior swap. SeqCst would buy nothing: admission
    // correctness rests on the `streams` mutex, not this flag.
    let was_accepting = shared.accepting.swap(false, Ordering::AcqRel);
    if was_accepting {
        let streams_left = shared.streams.lock().unwrap().len() as u64;
        let trace = &shared.telemetry.trace;
        trace.record(TraceKind::Shutdown, streams_left, 0);
    }
    let handles: Vec<(String, StreamHandle)> = {
        let mut streams = shared.streams.lock().unwrap();
        streams.drain().collect()
    };
    let mut snaps = Vec::new();
    for (name, handle) in handles {
        let (tx, rx) = mpsc::sync_channel(1);
        if handle.cmd.send(StreamCmd::Drain { reply: tx }).is_ok() {
            if let Ok(snap) = rx.recv() {
                snaps.push((name, snap));
            }
        }
        let _ = handle.join.join();
    }
    shared.drained.lock().unwrap().extend(snaps.iter().cloned());
    if was_accepting {
        // Wake the listener's blocking accept so it can observe the flag.
        let _ = TcpStream::connect(addr);
    }
    snaps
}

fn listener_loop(listener: TcpListener, shared: Arc<Shared>, addr: SocketAddr) {
    for conn in listener.incoming() {
        // ordering: Acquire — pairs with the AcqRel swap in shutdown_impl;
        // seeing `false` here must also see the drained stream map.
        if !shared.accepting.load(Ordering::Acquire) {
            break;
        }
        let stream = match conn {
            Ok(stream) => stream,
            Err(e) => {
                // Accept-side fd exhaustion (EMFILE/ENFILE) is transient:
                // clients finishing or detaching free fds. Panicking here
                // would kill every stream; spinning would starve the
                // threads that could free capacity. Record it and back
                // off briefly, then keep serving.
                if crate::reactor::is_fd_exhausted(&e) {
                    let limit = crate::reactor::current_nofile_limit();
                    let trace = &shared.telemetry.trace;
                    trace.record(TraceKind::FdExhausted, limit, 0);
                    thread::sleep(Duration::from_millis(50));
                }
                continue;
            }
        };
        let shared = Arc::clone(&shared);
        thread::spawn(move || handle_connection(shared, addr, stream));
    }
}

/// Creates a stream (idempotent). Returns the ack detail.
fn create_stream(
    shared: &Shared,
    name: &str,
    k: u32,
    s: u32,
    spec: &str,
) -> Result<&'static str, String> {
    let query = Query::parse(spec)?;
    query.validate()?;
    // Refuse sizes the daemon cannot serve before allocating anything: a
    // huge `k` or `s` would abort the whole process in an allocation.
    if k > MAX_STREAM_SITES {
        return Err(format!(
            "k {k} exceeds the limit of {MAX_STREAM_SITES} site slots per stream"
        ));
    }
    let s_eff = query.sample_size(s as usize);
    if s_eff > max_sample_size() {
        return Err(format!(
            "effective sample size {s_eff} exceeds {}, the most entries one snapshot frame carries",
            max_sample_size()
        ));
    }
    // ordering: Acquire — pairs with the AcqRel swap in shutdown_impl. The
    // check is advisory (the race against a concurrent shutdown is closed
    // by the `streams` mutex both paths take), so Acquire is enough.
    if !shared.accepting.load(Ordering::Acquire) {
        return Err("daemon is shutting down".to_string());
    }
    let mut streams = shared.streams.lock().unwrap();
    if streams.contains_key(name) {
        return Ok("exists");
    }
    let k_us = k as usize;
    let ell = query.duplication().unwrap_or(1);
    let rhh_output = match query {
        Query::ResidualHh { eps, delta } => {
            dwrs_apps::ResidualHhConfig::new(eps, delta, k_us).output_size()
        }
        // Non-rhh streams still answer rhh-so-far best-effort with the
        // default ε = 0.2 output size.
        _ => dwrs_apps::ResidualHhConfig::new(0.2, 0.05, k_us).output_size(),
    };
    let window_default = match query {
        Query::SlidingWindow { window } => Some(window),
        _ => None,
    };
    let coordinator = swor_coordinator(
        SworConfig::new(s_eff, k_us),
        stream_seed(shared.cfg.seed, name),
    );
    let queue_capacity = shared.cfg.queue_capacity.max(1);
    let depth = Arc::new(AtomicU64::new(0));
    let trace = TraceRing::with_epoch(DEFAULT_RING_CAPACITY, shared.telemetry.epoch());
    trace.record(TraceKind::Create, k.into(), s_eff as u64);
    let ctrs = StreamCtrs::new(&shared.telemetry);
    ctrs.streams_active.add(1);
    // ordering: Relaxed — lifetime counter read only by metrics reports;
    // fetch_add atomicity alone keeps the count exact.
    shared.streams_created.fetch_add(1, Ordering::Relaxed);
    let st = StreamState {
        name: name.to_string(),
        query,
        s_eff,
        ell,
        rhh_output,
        window_default,
        coordinator,
        downs: (0..k_us).map(|_| None).collect(),
        slots: vec![SlotState::Empty; k_us],
        slot_items: vec![0; k_us],
        metrics: Metrics::new(),
        trace,
        latency: QuantileSketch::new(HISTOGRAM_EPS),
        queue_capacity: queue_capacity as u32,
        depth: Arc::clone(&depth),
        ctrs,
    };
    let (tx, rx) = mpsc::sync_channel(queue_capacity);
    let cut = Arc::new(Handoff::new(st));
    let join = thread::spawn({
        let cut = Arc::clone(&cut);
        move || stream_processor(cut, rx)
    });
    streams.insert(
        name.to_string(),
        StreamHandle {
            cmd: CmdSender { tx, depth },
            cut,
            join,
        },
    );
    Ok("created")
}

/// Looks up a stream and takes what the caller needs of its handle.
fn lookup<R>(shared: &Shared, name: &str, pick: impl FnOnce(&StreamHandle) -> R) -> Option<R> {
    shared.streams.lock().unwrap().get(name).map(pick)
}

/// Counts one refused control request and drops a breadcrumb in the
/// daemon-level trace ring with the request's wire tag
/// ([`CtrlMsg::tag`]), so an operator can see *which* request kind was
/// refused.
fn note_ctrl_error(shared: &Shared, tag: u8) {
    let t = &shared.telemetry;
    t.registry.counter(METRIC_CTRL_ERRORS_TOTAL).inc();
    t.trace.record(TraceKind::CtrlError, u64::from(tag), 0);
}

/// Assembles one [`MetricsReport`]: the daemon's registry snapshot and
/// daemon-level trace tail, plus one per-stream section read under each
/// stream's lock, as live queries are, so every section is consistent
/// with the commands that preceded it. Streams mid-drain are skipped
/// (they have left the stream map).
fn scrape(shared: &Shared, events: u32) -> MetricsReport {
    let t = &shared.telemetry;
    t.registry.counter(METRIC_SCRAPES_TOTAL).inc();
    let cuts: Vec<Arc<Handoff<StreamState>>> = shared
        .streams
        .lock()
        .unwrap()
        .values()
        .map(|h| Arc::clone(&h.cut))
        .collect();
    let mut streams: Vec<StreamMetrics> = cuts
        .iter()
        .filter_map(|cut| Some(cut.read()?.metrics_section(events)))
        .collect();
    streams.sort_by(|a, b| a.stream.cmp(&b.stream));
    // The telemetry epoch is the daemon's bind time, so the report clock
    // is its uptime.
    let now = t.now_nanos();
    MetricsReport {
        now_nanos: now,
        uptime_nanos: now,
        // ordering: Relaxed — statistics snapshot; a report racing a
        // concurrent create may miss it, which is inherent to scraping.
        streams_created: shared.streams_created.load(Ordering::Relaxed),
        samples: t.registry.snapshot(),
        events: t.trace.snapshot(events as usize),
        streams,
    }
}

/// One control connection: a loop of control frames, until the client
/// goes away or the connection becomes a site's data link.
fn handle_connection(shared: Arc<Shared>, addr: SocketAddr, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    {
        let t = &shared.telemetry;
        let conns = t.registry.counter(METRIC_CONNECTIONS_TOTAL);
        conns.inc();
        t.trace.record(TraceKind::Connection, conns.get(), 0);
    }
    // The down half is split off up front: once an attach succeeds, the
    // processor writes broadcasts on it while this thread keeps reading
    // data frames from the original.
    let Ok(down_half) = stream.try_clone() else {
        return;
    };
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let mut writer = FramedWriter::new(write_half);
    let mut reader = FramedReader::new(stream);
    loop {
        let msg = match reader.read_msg::<CtrlMsg>() {
            Ok(Some(m)) => m,
            // Clean close or garbage: drop the connection. Control
            // connections carry no stream state, so nothing to unwind.
            Ok(None) | Err(_) => return,
        };
        let req_tag = msg.tag();
        let resp = match msg {
            CtrlMsg::Create {
                stream: name,
                k,
                s,
                query,
            } => match create_stream(&shared, &name, k, s, &query) {
                Ok(info) => CtrlResp::Ok { info: info.into() },
                Err(msg) => CtrlResp::Err { msg },
            },
            CtrlMsg::Attach { stream: name, site } => {
                let site = site as usize;
                let draining = || format!("stream {name:?} is draining");
                let reserved = lookup(&shared, &name, |h| h.cmd.clone())
                    .ok_or_else(|| format!("no such stream {name:?}"))
                    .and_then(|cmd| {
                        let (rtx, rrx) = mpsc::sync_channel(1);
                        let reserve = StreamCmd::Reserve { site, reply: rtx };
                        cmd.send(reserve).map_err(|_| draining())?;
                        Ok((cmd, rrx.recv().map_err(|_| draining())??))
                    });
                match reserved {
                    Ok((cmd, (resumed, items))) => {
                        let ack = CtrlResp::Attached {
                            site: site as u32,
                            resumed,
                            items,
                        };
                        if writer.write_msg(&ack).is_err() {
                            // The slot is reserved but the client is gone;
                            // release it.
                            let _ = cmd.send(StreamCmd::Detach { site });
                            return;
                        }
                        // Response written: now it is safe to hand the
                        // processor the down link (two-phase attach — see
                        // StreamCmd::Reserve).
                        let down = tcp_down_sender::<DownMsg>(down_half);
                        if cmd.send(StreamCmd::Link { site, down }).is_err() {
                            return;
                        }
                        site_data_loop(&mut reader, site, &cmd);
                        return;
                    }
                    Err(msg) => CtrlResp::Err { msg },
                }
            }
            CtrlMsg::Query {
                stream: name,
                kind,
                arg,
            } => match lookup(&shared, &name, |h| Arc::clone(&h.cut)) {
                None => CtrlResp::Err {
                    msg: format!("no such stream {name:?}"),
                },
                Some(cut) => match live_query(&cut, kind, arg) {
                    Some(Ok(snapshot)) => CtrlResp::Answer { snapshot },
                    Some(Err(msg)) => CtrlResp::Err { msg },
                    None => CtrlResp::Err {
                        msg: format!("stream {name:?} is draining"),
                    },
                },
            },
            CtrlMsg::Drain { stream: name } => {
                // Remove the handle first so no new attach can race the
                // drain; connections already attached keep their cloned
                // senders and finish normally.
                let handle = shared.streams.lock().unwrap().remove(&name);
                match handle {
                    None => CtrlResp::Err {
                        msg: format!("no such stream {name:?}"),
                    },
                    Some(handle) => {
                        let (rtx, rrx) = mpsc::sync_channel(1);
                        let _ = handle.cmd.send(StreamCmd::Drain { reply: rtx });
                        match rrx.recv() {
                            Ok(snapshot) => {
                                let _ = handle.join.join();
                                shared
                                    .drained
                                    .lock()
                                    .unwrap()
                                    .push((name, snapshot.clone()));
                                CtrlResp::Answer { snapshot }
                            }
                            Err(_) => CtrlResp::Err {
                                msg: format!("stream {name:?} already drained"),
                            },
                        }
                    }
                }
            }
            CtrlMsg::Metrics { events } => CtrlResp::Metrics {
                report: scrape(&shared, events),
            },
            CtrlMsg::Shutdown => {
                let snaps = shutdown_impl(&shared, addr);
                let _ = writer.write_msg(&CtrlResp::Ok {
                    info: format!("drained {} stream(s)", snaps.len()),
                });
                return;
            }
        };
        if matches!(resp, CtrlResp::Err { .. }) {
            note_ctrl_error(&shared, req_tag);
        }
        if writer.write_msg(&resp).is_err() {
            return;
        }
    }
}

/// After a successful attach, the connection is the slot's data link:
/// decode `BATCH`/`EOF` frames into processor commands. A clean close at
/// a frame boundary is a **detach** (the slot may reattach later) —
/// deliberately unlike the engines' readers, which treat it as a fault.
fn site_data_loop(reader: &mut FramedReader<TcpStream>, site: usize, cmd: &CmdSender) {
    while let Ok(Some(payload)) = reader.read_blob() {
        match decode_up::<UpMsg>(payload) {
            UpFrame::Batch { msgs, items } => {
                if cmd.send(StreamCmd::Up { site, msgs, items }).is_err() {
                    return;
                }
            }
            UpFrame::Eof => {
                let _ = cmd.send(StreamCmd::Eof { site });
                return;
            }
            // A site-sent FAULT, a malformed batch or an unrecognised
            // frame: the slot is gone but resumable, same as a clean
            // detach.
            UpFrame::Fault(_) => break,
        }
    }
    let _ = cmd.send(StreamCmd::Detach { site });
}

// ------------------------------------------------------------- client side

/// A framed control connection to a daemon.
pub struct CtrlClient {
    reader: FramedReader<TcpStream>,
    writer: FramedWriter<TcpStream>,
}

impl std::fmt::Debug for CtrlClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CtrlClient")
    }
}

impl CtrlClient {
    /// Connects to a daemon's control port.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<CtrlClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(CtrlClient {
            writer: FramedWriter::new(stream.try_clone()?),
            reader: FramedReader::new(stream),
        })
    }

    /// Sends one control request and reads its response.
    pub fn request(&mut self, msg: &CtrlMsg) -> io::Result<CtrlResp> {
        self.writer.write_msg(msg)?;
        match self.reader.read_msg::<CtrlResp>()? {
            Some(resp) => Ok(resp),
            None => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the control connection",
            )),
        }
    }

    /// Creates stream `stream` (idempotent — an existing stream keeps its
    /// original configuration).
    pub fn create(&mut self, stream: &str, k: u32, s: u32, query: &str) -> io::Result<CtrlResp> {
        self.request(&CtrlMsg::Create {
            stream: stream.to_string(),
            k,
            s,
            query: query.to_string(),
        })
    }

    /// Issues a live query and returns the snapshot (daemon-side refusals
    /// surface as [`RuntimeError::Transport`]).
    pub fn snapshot(
        &mut self,
        stream: &str,
        kind: LiveQueryKind,
        arg: u64,
    ) -> Result<LiveSnapshot, RuntimeError> {
        let resp = self
            .request(&CtrlMsg::Query {
                stream: stream.to_string(),
                kind,
                arg,
            })
            .map_err(|e| RuntimeError::Transport(e.to_string()))?;
        expect_answer(resp)
    }

    /// Drains `stream` (waits for every attached site to finish or
    /// detach) and returns its final snapshot.
    pub fn drain_stream(&mut self, stream: &str) -> Result<LiveSnapshot, RuntimeError> {
        let resp = self
            .request(&CtrlMsg::Drain {
                stream: stream.to_string(),
            })
            .map_err(|e| RuntimeError::Transport(e.to_string()))?;
        expect_answer(resp)
    }

    /// Asks the daemon to drain every stream and stop.
    pub fn shutdown(&mut self) -> io::Result<CtrlResp> {
        self.request(&CtrlMsg::Shutdown)
    }

    /// Scrapes the daemon's telemetry: the metrics-registry snapshot, the
    /// trailing `events` daemon-level trace events, and one per-stream
    /// section read between two of the stream's commands, as live queries
    /// are.
    pub fn metrics(&mut self, events: u32) -> Result<MetricsReport, RuntimeError> {
        let resp = self
            .request(&CtrlMsg::Metrics { events })
            .map_err(|e| RuntimeError::Transport(e.to_string()))?;
        match resp {
            CtrlResp::Metrics { report } => Ok(report),
            CtrlResp::Err { msg } => Err(RuntimeError::Transport(msg)),
            other => Err(RuntimeError::Transport(format!(
                "unexpected control response {other:?}"
            ))),
        }
    }
}

fn expect_answer(resp: CtrlResp) -> Result<LiveSnapshot, RuntimeError> {
    match resp {
        CtrlResp::Answer { snapshot } => Ok(snapshot),
        CtrlResp::Err { msg } => Err(RuntimeError::Transport(msg)),
        other => Err(RuntimeError::Transport(format!(
            "unexpected control response {other:?}"
        ))),
    }
}

/// The live halves of a claimed site slot, before the site state is
/// married in (see `AttachClient::open_slot`).
struct SlotLink<S: SiteNode> {
    up: Box<dyn BatchSender<S::Up>>,
    down: mpsc::Receiver<S::Down>,
    resumed: bool,
    prior_items: u64,
}

/// Bounded, deterministic retry-with-backoff for
/// [`AttachClient::attach_with_retry`].
///
/// Attempt `i` (0-based) that fails is followed by a sleep of
/// `min(cap_ms, base_ms · 2^i)` milliseconds, shortened by a
/// deterministic jitter of up to half the delay derived from
/// `jitter_seed` — so concurrently restarting sites do not reconnect in
/// lockstep, yet a given seed always produces the identical schedule
/// (chaos runs stay reproducible).
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Total attach attempts before giving up (≥ 1; a value of 1 means
    /// no retry).
    pub attempts: u32,
    /// First backoff delay in milliseconds.
    pub base_ms: u64,
    /// Backoff ceiling in milliseconds.
    pub cap_ms: u64,
    /// Seed for the deterministic jitter.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    /// 8 attempts, 10 ms doubling to a 500 ms cap: rides out the
    /// ~100 ms-scale window in which a daemon still considers a crashed
    /// slot attached, without stalling a genuinely refused attach for
    /// more than ~2 s total.
    fn default() -> RetryPolicy {
        RetryPolicy {
            attempts: 8,
            base_ms: 10,
            cap_ms: 500,
            jitter_seed: 0,
        }
    }
}

impl RetryPolicy {
    /// The sleep after failed attempt `attempt` (0-based): exponential
    /// backoff with the documented cap and deterministic jitter. Pure —
    /// the same policy and attempt always yield the same delay.
    pub fn delay(&self, attempt: u32) -> Duration {
        let full = self
            .base_ms
            .saturating_mul(1u64 << attempt.min(20))
            .min(self.cap_ms)
            .max(1);
        // Deterministic jitter in [0, full/2], derived SplitMix-style
        // from (seed, attempt).
        let mut z = self
            .jitter_seed
            .wrapping_add(u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        Duration::from_millis(full - z % (full / 2 + 1))
    }
}

/// A site attached to a daemon stream: the client half of the data plane.
///
/// Wraps any [`SiteNode`] whose messages are wire-codable and drives it
/// through the engines' own site driver (`SiteCore`): upstream batching
/// with [`RuntimeConfig::batch_max`], downstream broadcasts polled every
/// [`RuntimeConfig::down_poll_every`] items, flush → `Eof` → drain on
/// [`AttachClient::finish`]. The client keeps only the transport: its TCP
/// up sender and the channel its down-reader thread fills.
/// [`AttachClient::detach`] leaves the slot resumable instead, so a later
/// attach continues the same stream (validity is preserved: the daemon
/// replays threshold state on reattach, and the key-space filter is
/// monotone).
pub struct AttachClient<S: SiteNode> {
    core: SiteCore<S>,
    up: Box<dyn BatchSender<S::Up>>,
    down: mpsc::Receiver<S::Down>,
    resumed: bool,
    prior_items: u64,
}

impl<S: SiteNode> std::fmt::Debug for AttachClient<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AttachClient(resumed {})", self.resumed)
    }
}

impl<S> AttachClient<S>
where
    S: SiteNode,
    S::Up: FrameCodec + Send + 'static,
    S::Down: FrameCodec + Send + 'static,
{
    /// Connects to `addr`, attaches as site `site_id` of stream `stream`,
    /// and returns the ready-to-feed client. Fails if the slot is taken,
    /// finished, out of range, or the stream does not exist.
    pub fn attach(
        addr: impl ToSocketAddrs,
        stream: &str,
        site_id: usize,
        site: S,
        cfg: &RuntimeConfig,
    ) -> Result<AttachClient<S>, RuntimeError> {
        let link = Self::open_slot(addr, stream, site_id, cfg)?;
        Ok(Self::assemble(site, link, cfg))
    }

    /// Like [`AttachClient::attach`], but retries the connect/handshake
    /// with bounded exponential backoff when the daemon refuses or the
    /// connection drops mid-handshake — the failover path, where a
    /// restarting site races the daemon noticing the old link died. The
    /// site state is only consumed on success, so every retry resumes
    /// from the identical state. Returns the client and the number of
    /// *failed* attempts that preceded it (0 = first try succeeded).
    ///
    /// When every attempt fails the error is
    /// [`RuntimeError::ReattachExhausted`] carrying the final attempt's
    /// failure.
    pub fn attach_with_retry(
        addr: impl ToSocketAddrs + Clone,
        stream: &str,
        site_id: usize,
        site: S,
        cfg: &RuntimeConfig,
        policy: &RetryPolicy,
    ) -> Result<(AttachClient<S>, u32), RuntimeError> {
        let attempts = policy.attempts.max(1);
        let mut last = String::new();
        for attempt in 0..attempts {
            match Self::open_slot(addr.clone(), stream, site_id, cfg) {
                Ok(link) => return Ok((Self::assemble(site, link, cfg), attempt)),
                Err(e) => last = e.to_string(),
            }
            if attempt + 1 < attempts {
                thread::sleep(policy.delay(attempt));
            }
        }
        Err(RuntimeError::ReattachExhausted { attempts, last })
    }

    /// The connect + handshake half of an attach: claims the slot and
    /// returns the live link halves. Does not touch the site state, so a
    /// failed handshake loses nothing — the caller can retry.
    fn open_slot(
        addr: impl ToSocketAddrs,
        stream: &str,
        site_id: usize,
        cfg: &RuntimeConfig,
    ) -> Result<SlotLink<S>, RuntimeError> {
        let sock = TcpStream::connect(addr).map_err(io_transport)?;
        sock.set_nodelay(true).map_err(io_transport)?;
        let mut writer = FramedWriter::new(sock.try_clone().map_err(io_transport)?);
        let mut ctrl_reader = FramedReader::new(sock);
        writer
            .write_msg(&CtrlMsg::Attach {
                stream: stream.to_string(),
                site: site_id as u32,
            })
            .map_err(io_transport)?;
        let resp = ctrl_reader
            .read_msg::<CtrlResp>()
            .map_err(io_transport)?
            .ok_or_else(|| {
                RuntimeError::Transport("daemon closed the connection during attach".into())
            })?;
        let (resumed, prior_items) = match resp {
            CtrlResp::Attached { resumed, items, .. } => (resumed, items),
            CtrlResp::Err { msg } => {
                return Err(RuntimeError::Transport(format!("attach refused: {msg}")))
            }
            other => {
                return Err(RuntimeError::Transport(format!(
                    "unexpected attach response {other:?}"
                )))
            }
        };
        // The reader consumed exactly the response frame (FramedReader
        // never over-reads); the socket's read side now carries DOWN data
        // frames — hand it to a dedicated down-reader thread.
        let (down_tx, down_rx) = mpsc::channel();
        let read_half = ctrl_reader.into_inner();
        thread::spawn(move || down_reader::<S::Down>(read_half, down_tx));
        let mut up = tcp_batch_sender::<S::Up>(writer.into_inner());
        up.reserve_hint(cfg.batch_max);
        Ok(SlotLink {
            up,
            down: down_rx,
            resumed,
            prior_items,
        })
    }

    /// Marries the site state to a claimed slot link.
    fn assemble(site: S, link: SlotLink<S>, cfg: &RuntimeConfig) -> AttachClient<S> {
        AttachClient {
            core: SiteCore::new(site, cfg),
            up: link.up,
            down: link.down,
            resumed: link.resumed,
            prior_items: link.prior_items,
        }
    }

    /// Whether this attach resumed a previously detached slot.
    pub fn resumed(&self) -> bool {
        self.resumed
    }

    /// Items this slot had contributed before this attach.
    pub fn prior_items(&self) -> u64 {
        self.prior_items
    }

    /// Observes a run of stream items, applying coordinator broadcasts as
    /// they arrive and flushing upstream batches at `batch_max` — the
    /// engine's site loop, incrementally.
    pub fn feed(&mut self, items: impl IntoIterator<Item = Item>) -> Result<(), RuntimeError> {
        for item in items {
            if self.core.poll_due() {
                while let Ok(msg) = self.down.try_recv() {
                    self.core.site.receive(&msg);
                }
            }
            self.core.observe(item, &mut *self.up)?;
        }
        Ok(())
    }

    /// Finishes the slot for good: site finish-burst → flush → `Eof` →
    /// close → drain remaining broadcasts. Returns the site and this
    /// client's metrics. The slot cannot be reattached afterwards.
    pub fn finish(self) -> Result<(S, Metrics), RuntimeError> {
        self.close(true)
    }

    /// Kills the link the way a crashing site process would: the socket
    /// is torn down in both directions with no flush and no close
    /// handshake, so anything batched but not yet shipped is lost and no
    /// down-drain is attempted. The daemon observes the dead connection
    /// and marks the slot detached (resumable); a replacement incarnation
    /// can then reattach. Returns the site state as of the crash —
    /// callers simulating a real crash usually discard it. Dropping the
    /// client has the same effect on the slot, minus the returned state.
    pub fn abort(self) -> S {
        let AttachClient { core, mut up, .. } = self;
        up.abort();
        core.site
    }

    /// Detaches, leaving the slot resumable: flush → residual watermark →
    /// close **without** `Eof`. The daemon sees the clean close at a
    /// frame boundary and marks the slot detached; a later
    /// [`AttachClient::attach`] on the same slot resumes it.
    pub fn detach(self) -> Result<(S, Metrics), RuntimeError> {
        self.close(false)
    }

    /// The shared tail of [`AttachClient::finish`] (`eof`) and
    /// [`AttachClient::detach`]: ship the rest, half-close, and drain the
    /// broadcasts until the daemon closes the down link, which it does on
    /// `Eof` and on detach alike.
    fn close(self, eof: bool) -> Result<(S, Metrics), RuntimeError> {
        let AttachClient {
            mut core,
            mut up,
            down,
            ..
        } = self;
        if eof {
            core.finish(&mut *up)?;
        } else {
            core.detach(&mut *up)?;
        }
        up.close();
        drop(up);
        while let Ok(msg) = down.recv() {
            core.site.receive(&msg);
        }
        Ok((core.site, core.metrics))
    }
}

fn io_transport(e: io::Error) -> RuntimeError {
    RuntimeError::Transport(e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dwrs_sim::swor_site;

    fn daemon() -> Daemon {
        Daemon::bind("127.0.0.1:0", DaemonConfig::default()).expect("bind")
    }

    #[test]
    fn a_queued_read_waits_out_at_most_two_commands() {
        // One thread applies "commands" back to back, each bumping the
        // guarded counter and a lock-free mirror of it. Each read queues,
        // notes the mirror, and reads the counter once it holds the lock.
        let cut = Arc::new(Handoff::new(0u64));
        let applied = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let writer = thread::spawn({
            let (cut, applied, stop) = (Arc::clone(&cut), Arc::clone(&applied), Arc::clone(&stop));
            move || {
                // ordering: Relaxed — a stop flag only; the writer is joined.
                while !stop.load(Ordering::Relaxed) {
                    let mut turns = cut.write().expect("no holder panicked");
                    **turns += 1;
                    // ordering: SeqCst — the mirror joins the total order
                    // of the handoff's SeqCst operations the bound rests on.
                    applied.store(**turns, Ordering::SeqCst);
                }
            }
        });
        let mut worst = 0;
        for _ in 0..1_000 {
            // Read only once the writer has applied another command, so
            // every read meets a writer that is busy.
            // ordering: SeqCst — see the writer's store.
            let last = applied.load(Ordering::SeqCst);
            while applied.load(Ordering::SeqCst) == last {
                thread::yield_now();
            }
            cut.queue();
            let queued_at = applied.load(Ordering::SeqCst);
            let held = **cut.lock_queued().expect("no holder panicked");
            worst = worst.max(held - queued_at);
        }
        // ordering: Relaxed — see the writer's loop.
        stop.store(true, Ordering::Relaxed);
        writer.join().expect("writer");
        assert!(worst <= 2, "a read waited out {worst} commands");
    }

    #[test]
    fn fold_adds_stale_counts_to_the_registry() {
        let telemetry = Arc::new(Telemetry::new());
        let mut ctrs = StreamCtrs::new(&telemetry);
        let (mut m, mut stats) = (Metrics::new(), CoordStats::default());
        m.up_total = 5;
        (stats.stale_regular, stats.stale_early) = (2, 3);
        ctrs.fold(&m, &stats);
        stats.stale_early = 7;
        ctrs.fold(&m, &stats);
        ctrs.fold(&m, &stats);
        let get = |name| telemetry.registry.counter(name).get();
        assert_eq!(get(METRIC_UP_MESSAGES_TOTAL), 5);
        assert_eq!(get(METRIC_STALE_REGULAR_TOTAL), 2);
        assert_eq!(get(METRIC_STALE_EARLY_TOTAL), 7, "folds are cumulative");
    }

    #[test]
    fn create_is_idempotent_and_validated() {
        let d = daemon();
        let mut ctrl = CtrlClient::connect(d.local_addr()).unwrap();
        assert_eq!(
            ctrl.create("s1", 2, 8, "swor").unwrap(),
            CtrlResp::Ok {
                info: "created".into()
            }
        );
        assert_eq!(
            ctrl.create("s1", 4, 16, "swor").unwrap(),
            CtrlResp::Ok {
                info: "exists".into()
            }
        );
        // A bad query spec is refused without creating anything.
        assert!(matches!(
            ctrl.create("s2", 2, 8, "l1:9.0,0.5").unwrap(),
            CtrlResp::Err { .. }
        ));
        assert!(matches!(
            ctrl.request(&CtrlMsg::Query {
                stream: "s2".into(),
                kind: LiveQueryKind::Stats,
                arg: 0
            })
            .unwrap(),
            CtrlResp::Err { .. }
        ));
        // Sizes the daemon cannot serve are refused with the limit named,
        // before any allocation, and the daemon keeps serving: each
        // refusal is followed by a request that succeeds.
        let max_s = max_sample_size();
        assert_eq!(max_s, 43_686);
        let max_k = MAX_STREAM_SITES as usize;
        for (k, s, query, limit) in [
            (1, 4_000_000_000, "swor", max_s),
            (1, max_s as u32 + 1, "swor", max_s),
            (1, 8, "l1:1e-4", max_s),
            (4_000_000_000, 8, "swor", max_k),
            (MAX_STREAM_SITES + 1, 8, "swor", max_k),
        ] {
            match ctrl.create("big", k, s, query).unwrap() {
                CtrlResp::Err { msg } => assert!(msg.contains(&limit.to_string()), "{msg}"),
                other => panic!("k {k}, s {s}, {query}: {other:?}"),
            }
            assert!(ctrl.snapshot("s1", LiveQueryKind::Stats, 0).is_ok());
        }
        // At the limit, the full sample still fits one frame.
        ctrl.create("wide", 1, max_s as u32, "swor").unwrap();
        let site = swor_site(&SworConfig::new(max_s, 1), 9, 0);
        let rcfg = RuntimeConfig::default();
        let mut c = AttachClient::attach(d.local_addr(), "wide", 0, site, &rcfg).unwrap();
        c.feed((0..max_s as u64 + 1_000).map(Item::unit)).unwrap();
        c.finish().unwrap();
        let snap = ctrl.snapshot("wide", LiveQueryKind::CurrentSample, 0);
        assert_eq!(snap.unwrap().sample.len(), max_s);
        assert_eq!(ctrl.drain_stream("wide").unwrap().sample.len(), max_s);
        d.shutdown();
    }

    #[test]
    fn attach_feed_query_drain_round_trip() {
        let d = daemon();
        let addr = d.local_addr();
        let mut ctrl = CtrlClient::connect(addr).unwrap();
        ctrl.create("s", 2, 8, "swor").unwrap();
        let cfg = SworConfig::new(8, 2);
        let rcfg = RuntimeConfig::default();
        let mut clients: Vec<AttachClient<_>> = (0..2)
            .map(|i| {
                AttachClient::attach(addr, "s", i, swor_site(&cfg, 7, i), &rcfg).expect("attach")
            })
            .collect();
        for (i, c) in clients.iter_mut().enumerate() {
            assert!(!c.resumed());
            c.feed((0..500u64).map(|t| Item::new(2 * t + i as u64, 1.0 + (t % 5) as f64)))
                .unwrap();
        }
        for c in clients {
            c.finish().unwrap();
        }
        let snap = ctrl.snapshot("s", LiveQueryKind::CurrentSample, 0).unwrap();
        assert_eq!(snap.items, 1000);
        assert_eq!(snap.sites_eof, 2);
        assert_eq!(snap.sample.len(), 8);
        assert!(snap.sample.iter().all(|kd| kd.key >= snap.u));
        let fin = ctrl.drain_stream("s").unwrap();
        assert_eq!(fin.items, 1000);
        // Drained: the stream is gone.
        assert!(ctrl.snapshot("s", LiveQueryKind::Stats, 0).is_err());
        assert_eq!(d.shutdown().len(), 0);
        assert_eq!(d.drained().len(), 1);
    }

    #[test]
    fn attach_conflicts_are_refused() {
        let d = daemon();
        let addr = d.local_addr();
        let mut ctrl = CtrlClient::connect(addr).unwrap();
        ctrl.create("s", 1, 4, "swor").unwrap();
        let cfg = SworConfig::new(4, 1);
        let rcfg = RuntimeConfig::default();
        let held = AttachClient::attach(addr, "s", 0, swor_site(&cfg, 1, 0), &rcfg).unwrap();
        // Same slot while held → refused; out-of-range slot → refused.
        assert!(AttachClient::attach(addr, "s", 0, swor_site(&cfg, 1, 0), &rcfg).is_err());
        assert!(AttachClient::attach(addr, "s", 9, swor_site(&cfg, 1, 0), &rcfg).is_err());
        held.finish().unwrap();
        // Finished slot → refused (Eof is final).
        assert!(AttachClient::attach(addr, "s", 0, swor_site(&cfg, 1, 0), &rcfg).is_err());
        d.shutdown();
    }

    #[test]
    fn detach_then_reattach_resumes_the_slot() {
        let d = daemon();
        let addr = d.local_addr();
        let mut ctrl = CtrlClient::connect(addr).unwrap();
        ctrl.create("s", 1, 4, "swor").unwrap();
        let cfg = SworConfig::new(4, 1);
        let rcfg = RuntimeConfig::default();
        let mut c = AttachClient::attach(addr, "s", 0, swor_site(&cfg, 3, 0), &rcfg).unwrap();
        c.feed((0..300).map(Item::unit)).unwrap();
        let (site, _) = c.detach().unwrap();
        // The watermark survives the detach.
        let snap = ctrl.snapshot("s", LiveQueryKind::Stats, 0).unwrap();
        assert_eq!(snap.items, 300);
        assert_eq!(snap.sites_attached, 0);
        let mut c = AttachClient::attach(addr, "s", 0, site, &rcfg).unwrap();
        assert!(c.resumed());
        assert_eq!(c.prior_items(), 300);
        c.feed((300..700).map(Item::unit)).unwrap();
        c.finish().unwrap();
        let fin = ctrl.drain_stream("s").unwrap();
        assert_eq!(fin.items, 700);
        assert_eq!(fin.sample.len(), 4);
        d.shutdown();
    }

    #[test]
    fn dropped_client_detaches_so_drain_answers() {
        // Callers drop a client whenever `feed` fails or they panic. The
        // down-reader thread holds a second handle to the socket, so the
        // daemon heard the drop only once the dropped up sender shut the
        // socket down itself; before that, the slot stayed Attached and
        // the drain waited for it.
        let d = daemon();
        let addr = d.local_addr();
        let mut ctrl = CtrlClient::connect(addr).unwrap();
        ctrl.create("s", 1, 4, "swor").unwrap();
        let site = swor_site(&SworConfig::new(4, 1), 2, 0);
        let mut c = AttachClient::attach(addr, "s", 0, site, &RuntimeConfig::default()).unwrap();
        c.feed((0..10_000).map(Item::unit)).unwrap();
        drop(c);
        let (tx, rx) = mpsc::channel();
        let drain = thread::spawn(move || {
            let _ = tx.send(ctrl.drain_stream("s").map(|snap| snap.sites_attached));
        });
        let attached = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("drain hung on the dropped client's slot");
        drain.join().expect("drain thread");
        assert_eq!(attached.unwrap(), 0);
        d.shutdown();
    }

    #[test]
    fn shutdown_drains_every_stream() {
        let d = daemon();
        let addr = d.local_addr();
        let mut ctrl = CtrlClient::connect(addr).unwrap();
        ctrl.create("a", 1, 4, "swor").unwrap();
        ctrl.create("b", 1, 4, "window:100").unwrap();
        let rcfg = RuntimeConfig::default();
        let cfg = SworConfig::new(4, 1);
        let c = AttachClient::attach(addr, "a", 0, swor_site(&cfg, 5, 0), &rcfg).unwrap();
        c.finish().unwrap();
        let mut snaps = d.shutdown();
        snaps.sort_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(snaps.len(), 2);
        assert_eq!(snaps[0].0, "a");
        assert_eq!(snaps[1].0, "b");
        // Idempotent.
        assert!(d.shutdown().is_empty());
        // New control connections are no longer served.
        assert!(CtrlClient::connect(addr)
            .and_then(|mut c| c.create("late", 1, 4, "swor"))
            .is_err());
    }

    #[test]
    fn shutdown_control_frame_stops_the_daemon() {
        let d = daemon();
        let addr = d.local_addr();
        let mut ctrl = CtrlClient::connect(addr).unwrap();
        ctrl.create("s", 1, 4, "swor").unwrap();
        let resp = ctrl.shutdown().unwrap();
        assert!(matches!(resp, CtrlResp::Ok { .. }));
        d.join(); // returns because the control frame stopped the listener
        assert_eq!(d.drained().len(), 1);
    }

    #[test]
    fn window_now_needs_a_window() {
        let d = daemon();
        let addr = d.local_addr();
        let mut ctrl = CtrlClient::connect(addr).unwrap();
        ctrl.create("plain", 1, 4, "swor").unwrap();
        ctrl.create("win", 1, 4, "window:50").unwrap();
        // Explicit arg works on any stream; arg 0 only on window streams.
        assert!(ctrl.snapshot("plain", LiveQueryKind::WindowNow, 10).is_ok());
        assert!(ctrl.snapshot("plain", LiveQueryKind::WindowNow, 0).is_err());
        assert!(ctrl.snapshot("win", LiveQueryKind::WindowNow, 0).is_ok());
        d.shutdown();
    }
}
