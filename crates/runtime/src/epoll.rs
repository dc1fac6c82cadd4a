//! The event-driven `epoll` engine, the one socket engine: thousands of
//! site connections over loopback TCP, on the site pool's few workers
//! and one coordinator-side reactor thread.
//!
//! At the paper's deployment regime (k in the thousands, one site per
//! edge/user shard) a thread per connection would be tens of thousands of
//! threads. This engine runs readiness-driven state machines over
//! nonblocking sockets instead (see [`crate::reactor`]), speaking the
//! `HELLO`/`BATCH`/`EOF`/`FAULT`/`DOWN` frames through the data-plane
//! codec in [`crate::tcp`], with the threads engine's [`dwrs_sim::Metrics`]
//! accounting:
//!
//! * **Site side** — each site is a task of the site pool that the
//!   threads engine runs on too ([`crate::engine`]): the same `SiteTask`
//!   around the same `SiteCore`, advanced by the same worker loop, here
//!   over a `SockLink` — the nonblocking socket, its buffers and its
//!   readiness hints, registered in its worker's poller.
//! * **Coordinator side** — one reactor thread owns every site connection:
//!   it reassembles up-frames and hands each one to the unmodified
//!   coordinator loop (`engine::serve_sites`) over an unbounded
//!   `mpsc` channel, and flushes down-messages from per-connection
//!   `SendBuf`s on write readiness.
//!
//! # Backpressure and deadlock freedom, tier by tier
//!
//! The engine invariant (bounded up path, unbounded eagerly drained down
//! path — see [`crate::engine`]) maps onto the reactor so:
//!
//! * The credits count a frame from the moment a site task encodes it, so
//!   frames built against stale thresholds cannot pile up in send
//!   buffers, kernel socket buffers and the handoff either.
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
//!   handoff.
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
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, PoisonError};
use std::thread;
use std::time::Duration;

use dwrs_core::framed::FrameCodec;
use dwrs_core::swor::SyncMsg;
use dwrs_sim::{CoordinatorNode, NoDown, SiteNode};

use crate::config::RuntimeConfig;
use crate::engine::{
    io_runtime_err, run_flat, CreditPool, ItemFeed, Pool, RunOutput, RuntimeError, SiteLink,
};
use crate::reactor::{
    raise_nofile_limit, wake_pair, PollEvent, Poller, RecvBuf, SendBuf, WakeRx, Waker, WAKE_TOKEN,
};
use crate::tcp::{
    accept_sites, connect_site, decode_down, decode_up, encode_batch, encode_down, encode_up,
    read_hello, write_hello,
};
use crate::transport::{BatchSender, CoordEndpoint, DownSender, TransportError, UpFrame, UpRx};
use crate::tree::{check_sync_fits_frame, run_tree_pool, TreeOutput, TreeTopology};

/// Soft cap on a site's buffered-but-unflushed up bytes: past this the
/// task stops pulling input until write readiness drains it (the buffered
/// analogue of a blocking socket `send`).
const UP_BUF_CAP: usize = 64 * 1024;

/// Advisory cap on a connection's buffered down bytes. Down sends must
/// never block or fail (deadlock-freedom invariant), so the coordinator
/// may run over; sites drain eagerly, keeping the excess transient.
const DOWN_BUF_CAP: usize = 64 * 1024;

// ------------------------------------------------------------ site link

/// A site task's end of its reactor connection: the nonblocking socket,
/// its buffers and readiness hints, and its registration in the worker's
/// poller. As a [`BatchSender`] it encodes frames through the data-plane
/// codec into the send buffer, which the task's flushes write out.
struct SockLink {
    /// Global site index, for diagnostics.
    global: usize,
    stream: TcpStream,
    recv: RecvBuf,
    send: SendBuf,
    /// Readiness hints from the worker's poller (level-triggered, so a
    /// stale `true` costs one `WouldBlock` syscall, never a lost event).
    read_ready: bool,
    write_ready: bool,
    /// The down link still delivers (false once the coordinator
    /// half-closes or the connection dies).
    downs_open: bool,
    /// The `(read, write)` interest registered in the worker's poller.
    registered: Option<(bool, bool)>,
}

impl SockLink {
    fn new(global: usize, stream: TcpStream) -> SockLink {
        SockLink {
            global,
            stream,
            recv: RecvBuf::new(),
            send: SendBuf::with_cap(UP_BUF_CAP),
            read_ready: true,
            write_ready: true,
            downs_open: true,
            registered: None,
        }
    }
}

impl<U: FrameCodec + Send> BatchSender<U> for SockLink {
    fn send(&mut self, frame: UpFrame<U>) -> Result<(), TransportError> {
        self.send
            .frame_with(|b| encode_up(&frame, b))
            .map_err(TransportError::Io)
    }

    fn send_batch(&mut self, batch: &mut Vec<U>, items: u64) -> Result<(), TransportError> {
        self.send
            .frame_with(|b| encode_batch(batch, items, b))
            .map_err(TransportError::Io)?;
        batch.clear();
        Ok(())
    }

    /// Tears the connection down so the peer fails fast.
    fn abort(&mut self) {
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}

impl<S> SiteLink<S> for SockLink
where
    S: SiteNode,
    S::Up: FrameCodec + Send,
    S::Down: FrameCodec,
{
    /// Connection close or error ends the drain (`downs_open = false`)
    /// like the channel link's disconnect; a malformed frame is a
    /// transport error.
    fn drain_downs(&mut self, site: &mut S, force: bool) -> Result<bool, RuntimeError> {
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
                site.receive(&msg);
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

    fn downs_open(&self) -> bool {
        self.downs_open
    }

    /// Writes as much buffered up traffic as the socket accepts.
    fn flush(&mut self) -> Result<bool, RuntimeError> {
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

    fn backlogged(&self) -> bool {
        self.send.over_cap()
    }

    fn close_up(&mut self) -> bool {
        if !self.send.is_empty() {
            return false;
        }
        let _ = self.stream.shutdown(Shutdown::Write);
        true
    }

    /// Registers read interest while the down link delivers and write
    /// interest while bytes wait to go out; with neither (or `done`) the
    /// socket is deregistered, since `EPOLLHUP` is reported regardless of
    /// the mask and a dead-idle connection left registered would storm
    /// the level-triggered loop.
    fn watch(&mut self, poller: &Poller, token: u64, done: bool) {
        let want =
            Some((self.downs_open, !self.send.is_empty())).filter(|&(r, w)| !done && (r || w));
        poller.reconcile(self.stream.as_raw_fd(), token, &mut self.registered, want);
    }

    /// A hang-up sets both hints, so the next read or write observes the
    /// failure directly.
    fn ready(&mut self, ev: &PollEvent) {
        self.read_ready |= ev.readable || ev.hangup;
        self.write_ready |= ev.writable || ev.hangup;
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

    /// Requests the half-close once the buffer drains (or, with `discard`,
    /// drops what is buffered first) and wakes the reactor. Never panics:
    /// a dropped sender may call it while unwinding, and a poisoned lock
    /// still closes the link.
    fn close(&self, discard: bool) {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if discard {
            st.send.clear();
        }
        st.closing = true;
        self.publish(&st);
        drop(st);
        self.waker.wake();
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
        self.tx.close(false);
    }
}

/// Dropping the sender closes the link, mirroring the channel transport's
/// disconnect-on-drop. Without this, a coordinator that dies without
/// calling `close()` (a panic unwinding its loop) would leave every
/// cleanly-finished connection waiting for a down-side half-close that
/// never comes — and the reactor parked in `epoll_wait` forever.
impl<D> Drop for EpollDownSender<D> {
    fn drop(&mut self) {
        self.tx.close(false);
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
    /// The `(read, write)` interest registered in the reactor's poller.
    registered: Option<(bool, bool)>,
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
            registered: None,
            dead: false,
        };
        (conn, down)
    }

    /// Tears the connection down both ways, dropping whatever downs are
    /// still buffered, so a peer still streaming fails fast.
    fn teardown(&mut self) {
        self.tx.close(true);
        let _ = self.stream.shutdown(Shutdown::Both);
        self.write_shut = true;
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
        c.teardown();
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
        drop(st);
        c.teardown();
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
/// connection. Decoded up-frames are handed to the coordinators' loops
/// (`engine::serve_sites`) over the unbounded channels of `ups`; down-frames
/// queued by [`EpollDownSender`]s flush on write readiness. Exits once
/// every connection has completed both directions; dropping the
/// connections closes the sockets, and dropping `ups` closes the credit
/// pools, so even an abnormal exit releases the sites.
fn coord_reactor<U: FrameCodec>(
    mut conns: Vec<CoordConn>,
    ups: Vec<UpLink<U>>,
    mut wake_rx: WakeRx,
) -> Result<(), RuntimeError> {
    let poller = Poller::new().map_err(|e| io_runtime_err("creating coordinator epoll", &e))?;
    poller
        .register(wake_rx.raw_fd(), WAKE_TOKEN, true, false)
        .map_err(|e| io_runtime_err("registering coordinator waker", &e))?;
    for (i, c) in conns.iter_mut().enumerate() {
        poller
            .register(c.stream.as_raw_fd(), i as u64, true, false)
            .map_err(|e| io_runtime_err("registering site connection", &e))?;
        c.registered = Some((true, false));
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
                c.teardown();
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
            let fd = c.stream.as_raw_fd();
            if c.up_done && c.write_shut {
                poller.reconcile(fd, i as u64, &mut c.registered, None);
                c.dead = true;
                live -= 1;
                continue;
            }
            let want_w = !c.write_shut && c.tx.pending_hint.load(Ordering::Acquire) > 0;
            let want = Some((!c.up_done, want_w)).filter(|&(r, w)| r || w);
            poller.reconcile(fd, i as u64, &mut c.registered, want);
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
            .and_then(|()| read_hello(&stream, k, |site| accepted[site].is_some()))
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

/// Binds a loopback listener for `what`.
fn bind(what: &str) -> Result<(TcpListener, SocketAddr), RuntimeError> {
    let listener = TcpListener::bind((std::net::Ipv4Addr::LOCALHOST, 0))
        .map_err(|e| io_runtime_err(&format!("bind {what} listener"), &e))?;
    let addr = listener
        .local_addr()
        .map_err(|e| RuntimeError::Transport(e.to_string()))?;
    Ok((listener, addr))
}

/// Connects `groups × k` site sockets and wraps each accepted end as a
/// reactor connection reporting as member `global % k` into `UpLink`
/// `global / k`. Returns the pool's site links (in global order), each
/// coordinator's down senders, the connections, and the reactor's wake
/// receiver.
#[allow(clippy::type_complexity)]
fn wire_links<D: FrameCodec + Send + 'static>(
    groups: usize,
    k: usize,
) -> Result<
    (
        Vec<SockLink>,
        Vec<Vec<Box<dyn DownSender<D>>>>,
        Vec<CoordConn>,
        WakeRx,
    ),
    RuntimeError,
> {
    let (listener, addr) = bind("site")?;
    let (site_streams, coord_streams) = wire_sites(&listener, addr, groups * k)?;
    let (waker, wake_rx) = wake_pair().map_err(|e| io_runtime_err("creating reactor waker", &e))?;
    let mut conns = Vec::with_capacity(groups * k);
    let mut downs: Vec<Vec<Box<dyn DownSender<D>>>> =
        (0..groups).map(|_| Vec::with_capacity(k)).collect();
    for (global, stream) in coord_streams.into_iter().enumerate() {
        let (conn, down) = CoordConn::new(stream, global % k, global / k, &waker);
        conns.push(conn);
        downs[global / k].push(down);
    }
    let links = site_streams
        .into_iter()
        .enumerate()
        .map(|(global, stream)| SockLink::new(global, stream))
        .collect();
    Ok((links, downs, conns, wake_rx))
}

/// Runs a full flat deployment on the event-driven engine: `k` site
/// connections over loopback TCP, their sites run as tasks on the site
/// pool's workers, plus one coordinator reactor — thread count is O(1)
/// in `k`, so k in the thousands runs on one box.
///
/// Protocol behavior and [`dwrs_sim::Metrics`] accounting are identical to
/// [`crate::engine::run_threads`], and so is the meaning of
/// `cfg.queue_capacity`: credits for the batches between the sites and
/// the coordinator. `feeds[i]` is site `i`'s partition of the stream as a
/// nonblocking [`ItemFeed`].
pub fn run_epoll<S, C>(
    sites: Vec<S>,
    coordinator: C,
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
    let (links, mut downs, conns, wake_rx) = wire_links::<S::Down>(1, k)?;
    let pool = Pool::new(k)?;
    let (up, up_rx) = UpLink::new(pool.credits(cfg.queue_capacity));
    let downs = downs.pop().expect("one group");
    let coord_ep = CoordEndpoint { up: up_rx, downs };
    let tasks = pool.tasks(0, sites, links, feeds, &up.credits, cfg);
    let reactor = move || coord_reactor::<S::Up>(conns, vec![up], wake_rx);
    run_flat(pool, tasks, coordinator, coord_ep, Some(reactor))
}

/// Runs a two-level fan-in tree on the event-driven engine: all `g·k`
/// site connections share one listener and one coordinator-side reactor
/// (HELLO ids are global, `gi·k + i`), the sites run as tasks on the
/// site pool, and each group's aggregator takes frames off its own
/// handoff while the group's sites draw on its own credit pool
/// (`queue_capacity` batches), so the reactor never waits on a slow
/// aggregator. The aggregator→root hop stays on the blocking socket
/// halves of [`crate::tcp`] (one reader thread per link), since `g` links
/// is a fan-in a thread per link handles fine; its [`SyncMsg`] frames
/// cross real sockets like every site frame.
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
    A: CoordinatorNode<Up = S::Up, Down = S::Down> + crate::tree::SampleSource + Send,
{
    let (g, k) = (topo.groups, topo.k_per_group);
    assert!(g >= 1 && k >= 1, "need at least one site per group");
    assert_eq!(feeds.len(), g, "one feed block per group");
    check_sync_fits_frame(s)?;
    let _ = raise_nofile_limit();
    let (links, downs, conns, wake_rx) = wire_links::<S::Down>(g, k)?;
    let pool = Pool::new(g * k)?;

    let (root_listener, root_addr) = bind("root")?;
    let mut root_links = Vec::with_capacity(g);
    for gi in 0..g {
        let link = connect_site(root_addr, gi)
            .map_err(|e| RuntimeError::Transport(format!("connect group {gi} root link: {e}")))?;
        root_links.push(link);
    }
    let root_ep = accept_sites::<SyncMsg, NoDown>(&root_listener, g, cfg.queue_capacity)?;

    // One credit pool and handoff per aggregator, matching the threads
    // tree's per-group bound; one reactor (and one waker) multiplexing
    // every group's connections.
    let mut ups = Vec::with_capacity(g);
    let mut groups = Vec::with_capacity(g);
    let mut tasks = Vec::with_capacity(g * k);
    let mut links = links.into_iter();
    let wiring = feeds.into_iter().zip(downs).zip(root_links);
    for (gi, ((group_feeds, downs), root_link)) in wiring.enumerate() {
        assert_eq!(group_feeds.len(), k, "one feed per site");
        let (up, up_rx) = UpLink::new(pool.credits(cfg.queue_capacity));
        let sites = (0..k).map(|i| mk_site(gi, i));
        let group_links = links.by_ref().take(k);
        tasks.extend(pool.tasks(gi * k, sites, group_links, group_feeds, &up.credits, cfg));
        let agg_ep = CoordEndpoint { up: up_rx, downs };
        groups.push((mk_aggregator(gi), agg_ep, root_link));
        ups.push(up);
    }
    let reactor = move || coord_reactor::<S::Up>(conns, ups, wake_rx);
    run_tree_pool(
        s,
        topo.sync_every,
        pool,
        tasks,
        groups,
        root_ep,
        Some(reactor),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Feed, VecFeed};
    use dwrs_core::swor::wire::WireError;
    use dwrs_core::Item;
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
        // task, not terminate it: every item still arrives, in order. A
        // worker parks with no timeout, so the feed keeps the waker it is
        // handed and wakes it once its next frame is ready — here at
        // once, from the poll that returns Pending.
        struct Stutter {
            frames: Vec<Vec<Item>>,
            gap: bool,
            waker: Option<std::task::Waker>,
        }
        impl ItemFeed for Stutter {
            fn poll(&mut self) -> Feed {
                if self.gap {
                    self.gap = false;
                    self.waker
                        .as_ref()
                        .expect("set before polling")
                        .wake_by_ref();
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
            fn set_waker(&mut self, waker: &std::task::Waker) {
                self.waker = Some(waker.clone());
            }
        }
        let frames = (0..10u64)
            .rev()
            .map(|f| (0..10).map(|i| Item::unit(f * 10 + i)).collect())
            .collect();
        let stutter = Stutter {
            frames,
            gap: false,
            waker: None,
        };
        let feeds = vec![Box::new(stutter) as Box<dyn ItemFeed>];
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
        let in_flight = || pool.in_flight();
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
        assert!(!pool.is_open(), "a fault closes the pool");

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
        assert_eq!(pool.in_flight(), 0, "saturates at 0");

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
