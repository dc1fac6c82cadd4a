//! The pluggable transport abstraction.
//!
//! A deployment is `k` site links plus one coordinator endpoint. The
//! coordinator's receiving half is always a `std::sync::mpsc` receiver
//! (the epoll engine's reactor bridges its sockets onto one); its down
//! senders are trait objects ([`DownSender`]: an in-process channel, a
//! reactor connection's send buffer, or a framed socket writer). Site
//! tasks reach their coordinator through the site scheduler's
//! `SiteLink`: `channel_links` wires the threads engine's, the epoll
//! engine wires sockets. The blocking [`SiteEndpoint`] halves remain for
//! the tree's aggregator→root hop and the daemon's attach client.
//!
//! Queue discipline (the deadlock-freedom invariant, see `crate::engine`):
//! the site→coordinator path is **bounded** by credits that the
//! coordinator returns as it takes each batch (the root hop: a bounded
//! channel whose `send` blocks), while the coordinator→site path is
//! **unbounded** and eagerly drained.

use std::sync::{mpsc, Arc};

use dwrs_sim::SiteNode;

use crate::engine::{CreditPool, Pool, RuntimeError, SiteLink};
use crate::reactor::Waker;

/// One site→coordinator transport frame.
#[derive(Clone, Debug, PartialEq)]
pub enum UpFrame<U> {
    /// A batch of upstream protocol messages, in site order.
    Batch {
        /// The protocol messages, in the order the site produced them.
        msgs: Vec<U>,
        /// Stream items the site observed since its previous frame. The
        /// protocols are message-sublinear, so this generally exceeds
        /// `msgs.len()`; hierarchical aggregators use it as the sync
        /// cadence watermark (flat coordinators may ignore it).
        items: u64,
    },
    /// The site has exhausted its stream; no further frames follow.
    Eof,
    /// A transport-level failure observed on this link (decode error,
    /// broken connection). Terminates the link like `Eof`, but the run
    /// reports it.
    Fault(String),
}

/// Transport failure surfaced to the engine.
#[derive(Debug)]
pub enum TransportError {
    /// The peer endpoint is gone (channel disconnected / socket closed).
    Closed,
    /// An I/O error on a socket-backed transport.
    Io(std::io::Error),
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Closed => write!(f, "peer endpoint closed"),
            TransportError::Io(e) => write!(f, "transport i/o error: {e}"),
        }
    }
}

impl std::error::Error for TransportError {}

impl From<std::io::Error> for TransportError {
    fn from(e: std::io::Error) -> Self {
        TransportError::Io(e)
    }
}

/// Site-side sending half of the up path. On a blocking link (the tree's
/// root hop, the daemon's attach client) `send` blocks while the bounded
/// queue or the socket is full — that is the backpressure; a pooled
/// site's link never blocks, and credits bound it instead.
pub trait BatchSender<U>: Send {
    /// Ships one frame; a blocking link blocks under backpressure.
    fn send(&mut self, frame: UpFrame<U>) -> Result<(), TransportError>;

    /// Ships the accumulated batch, draining `batch` in place.
    ///
    /// The default moves the messages out (a channel transport must hand
    /// ownership across threads, so the vector's allocation travels with
    /// them); encoding transports override this to serialize straight from
    /// the borrowed batch and `clear()` it, keeping the caller's allocation
    /// alive across flushes — the allocation-free hot path.
    fn send_batch(&mut self, batch: &mut Vec<U>, items: u64) -> Result<(), TransportError> {
        let msgs = std::mem::take(batch);
        self.send(UpFrame::Batch { msgs, items })
    }

    /// Advisory: the sender will flush batches of up to `batch_max`
    /// messages. Encoding transports pre-size their frame scratch from it.
    fn reserve_hint(&mut self, _batch_max: usize) {}

    /// Severs the link immediately, discarding anything unflushed — the
    /// crash path. Socket transports tear the connection down in *both*
    /// directions (no flush, no close handshake) so the peer observes the
    /// death promptly; the default falls back to a clean `close`.
    fn abort(&mut self) {
        self.close();
    }

    /// Signals that no more frames follow (flush + half-close for sockets).
    fn close(&mut self) {}
}

/// Coordinator-side sending half of one site's down path. Must never block
/// indefinitely (unbounded channel / eagerly drained socket).
pub trait DownSender<D>: Send {
    /// Ships one downstream message. A closed link is not an error: the
    /// site may legitimately have finished and gone away.
    fn send(&mut self, msg: &D) -> Result<(), TransportError>;
    /// Half-closes the link so the site's drain loop terminates.
    fn close(&mut self) {}
}

/// A site's two half-links.
pub struct SiteEndpoint<U, D> {
    /// Site index in `0..k`.
    pub id: usize,
    pub(crate) up: Box<dyn BatchSender<U>>,
    pub(crate) down: mpsc::Receiver<D>,
}

impl<U, D> SiteEndpoint<U, D> {
    /// Assembles an endpoint from its halves.
    pub fn new(id: usize, up: Box<dyn BatchSender<U>>, down: mpsc::Receiver<D>) -> Self {
        Self { id, up, down }
    }
}

impl<U, D> std::fmt::Debug for SiteEndpoint<U, D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SiteEndpoint(id {})", self.id)
    }
}

/// The coordinator's merged inbound queue plus one down link per site.
pub struct CoordEndpoint<U, D> {
    pub(crate) up: UpRx<U>,
    pub(crate) downs: Vec<Box<dyn DownSender<D>>>,
}

impl<U, D> CoordEndpoint<U, D> {
    /// Assembles an endpoint from its halves.
    pub fn new(
        up: mpsc::Receiver<(usize, UpFrame<U>)>,
        downs: Vec<Box<dyn DownSender<D>>>,
    ) -> Self {
        Self {
            up: UpRx {
                rx: up,
                credits: None,
            },
            downs,
        }
    }

    /// Number of connected sites.
    pub fn num_sites(&self) -> usize {
        self.downs.len()
    }
}

impl<U, D> std::fmt::Debug for CoordEndpoint<U, D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CoordEndpoint({} sites)", self.downs.len())
    }
}

/// The coordinator's end of the up path. Under the site pool the queue
/// is unbounded and the sites' credit pool is the bound, so taking a
/// BATCH frame off it is what returns the frame's credit; the blocking
/// wirings (the tree's root hop) have no pool.
pub(crate) struct UpRx<U> {
    rx: mpsc::Receiver<(usize, UpFrame<U>)>,
    credits: Option<Arc<CreditPool>>,
}

impl<U> UpRx<U> {
    /// A queue whose BATCH frames return their credit to `credits` when
    /// taken.
    pub(crate) fn with_credits(
        rx: mpsc::Receiver<(usize, UpFrame<U>)>,
        credits: Arc<CreditPool>,
    ) -> UpRx<U> {
        UpRx {
            rx,
            credits: Some(credits),
        }
    }

    /// Takes the next frame, blocking; returns a BATCH frame's credit.
    pub(crate) fn recv(&self) -> Result<(usize, UpFrame<U>), mpsc::RecvError> {
        self.rx.recv().map(|got| self.took(got))
    }

    /// Takes the next frame if one is queued, like [`UpRx::recv`].
    #[cfg(test)]
    pub(crate) fn try_recv(&self) -> Option<(usize, UpFrame<U>)> {
        self.rx.try_recv().ok().map(|got| self.took(got))
    }

    fn took(&self, got: (usize, UpFrame<U>)) -> (usize, UpFrame<U>) {
        if let (Some(pool), UpFrame::Batch { .. }) = (&self.credits, &got.1) {
            pool.put();
        }
        got
    }
}

/// Credits of frames the coordinator will never take cannot come back,
/// so a coordinator that stops taking frames (done, failed or panicked)
/// stops its pool from gating: sites parked on used-up credits resume,
/// and their next frames find the handoff orphaned.
impl<U> Drop for UpRx<U> {
    fn drop(&mut self) {
        if let Some(pool) = &self.credits {
            pool.close();
        }
    }
}

// ------------------------------------------------------- channel transport

/// Up sender over a shared bounded channel.
struct ChannelBatchSender<U> {
    site: usize,
    tx: mpsc::SyncSender<(usize, UpFrame<U>)>,
}

impl<U: Send> BatchSender<U> for ChannelBatchSender<U> {
    fn send(&mut self, frame: UpFrame<U>) -> Result<(), TransportError> {
        self.tx
            .send((self.site, frame))
            .map_err(|_| TransportError::Closed)
    }
}

/// Down sender over a per-site unbounded channel.
struct ChannelDownSender<D> {
    tx: Option<mpsc::Sender<D>>,
    /// The worker a pooled site runs on, woken by every send and by the
    /// close; none on the tree's root links, whose aggregators block on
    /// their receivers.
    waker: Option<Arc<Waker>>,
}

impl<D> ChannelDownSender<D> {
    fn wake(&self) {
        if let Some(w) = &self.waker {
            w.wake();
        }
    }
}

impl<D: Clone + Send> DownSender<D> for ChannelDownSender<D> {
    fn send(&mut self, msg: &D) -> Result<(), TransportError> {
        let sent = match &self.tx {
            Some(tx) => tx.send(msg.clone()).map_err(|_| TransportError::Closed),
            None => Err(TransportError::Closed),
        };
        self.wake();
        sent
    }
    fn close(&mut self) {
        self.tx = None;
        self.wake();
    }
}

/// A close is an event a draining site waits on, so dropping the sender
/// closes and wakes too: a coordinator may die without calling `close`
/// (a panic unwinding its loop).
impl<D> Drop for ChannelDownSender<D> {
    fn drop(&mut self) {
        self.tx = None;
        self.wake();
    }
}

/// A pooled site's in-process link to its coordinator: an unbounded up
/// channel, bounded by the site's credits, and an unbounded down channel
/// whose sender wakes the site's worker.
pub(crate) struct ChanLink<U, D> {
    /// Site id within its coordinator's deployment.
    site: usize,
    up: Option<mpsc::Sender<(usize, UpFrame<U>)>>,
    down: mpsc::Receiver<D>,
    downs_open: bool,
}

impl<U: Send, D: Send> BatchSender<U> for ChanLink<U, D> {
    fn send(&mut self, frame: UpFrame<U>) -> Result<(), TransportError> {
        match &self.up {
            Some(tx) => tx
                .send((self.site, frame))
                .map_err(|_| TransportError::Closed),
            None => Err(TransportError::Closed),
        }
    }

    fn abort(&mut self) {
        self.up = None;
    }
}

impl<S> SiteLink<S> for ChanLink<S::Up, S::Down>
where
    S: SiteNode,
    S::Up: Send,
    S::Down: Send,
{
    fn drain_downs(&mut self, site: &mut S, _force: bool) -> Result<bool, RuntimeError> {
        let mut progress = false;
        while self.downs_open {
            match self.down.try_recv() {
                Ok(msg) => site.receive(&msg),
                Err(mpsc::TryRecvError::Empty) => break,
                Err(mpsc::TryRecvError::Disconnected) => self.downs_open = false,
            }
            progress = true;
        }
        Ok(progress)
    }

    fn downs_open(&self) -> bool {
        self.downs_open
    }

    fn close_up(&mut self) -> bool {
        self.up = None;
        true
    }
}

/// Wires sites `first..first + k` of `pool` to one coordinator over
/// in-process channels: each BATCH frame takes a credit from `credits`,
/// returned as the coordinator takes the frame, and each down send or
/// close wakes the receiving site's worker.
pub(crate) fn channel_links<U, D>(
    pool: &Pool,
    first: usize,
    k: usize,
    credits: &Arc<CreditPool>,
) -> (Vec<ChanLink<U, D>>, CoordEndpoint<U, D>)
where
    U: Send + 'static,
    D: Clone + Send + 'static,
{
    let (up_tx, up_rx) = mpsc::channel();
    let mut links = Vec::with_capacity(k);
    let mut downs: Vec<Box<dyn DownSender<D>>> = Vec::with_capacity(k);
    for site in 0..k {
        let (down_tx, down_rx) = mpsc::channel();
        links.push(ChanLink {
            site,
            up: Some(up_tx.clone()),
            down: down_rx,
            downs_open: true,
        });
        downs.push(Box::new(ChannelDownSender {
            tx: Some(down_tx),
            waker: Some(Arc::clone(pool.waker(first + site))),
        }));
    }
    let up = UpRx::with_credits(up_rx, Arc::clone(credits));
    (links, CoordEndpoint { up, downs })
}

/// Builds a fully in-process blocking deployment: one bounded up channel
/// shared by all senders, one unbounded down channel per sender. The
/// threads tree's aggregator→root hop runs on it.
pub fn channel_wiring<U, D>(
    k: usize,
    queue_capacity: usize,
) -> (Vec<SiteEndpoint<U, D>>, CoordEndpoint<U, D>)
where
    U: Send + 'static,
    D: Clone + Send + 'static,
{
    assert!(k >= 1, "need at least one site");
    let (up_tx, up_rx) = mpsc::sync_channel(queue_capacity.max(1));
    let mut sites = Vec::with_capacity(k);
    let mut downs: Vec<Box<dyn DownSender<D>>> = Vec::with_capacity(k);
    for id in 0..k {
        let (down_tx, down_rx) = mpsc::channel();
        sites.push(SiteEndpoint::new(
            id,
            Box::new(ChannelBatchSender {
                site: id,
                tx: up_tx.clone(),
            }),
            down_rx,
        ));
        downs.push(Box::new(ChannelDownSender {
            tx: Some(down_tx),
            waker: None,
        }));
    }
    drop(up_tx);
    (sites, CoordEndpoint::new(up_rx, downs))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_wiring_routes_up_and_down() {
        let (mut sites, mut coord) = channel_wiring::<u32, u32>(2, 4);
        sites[1]
            .up
            .send(UpFrame::Batch {
                msgs: vec![7, 8],
                items: 5,
            })
            .unwrap();
        sites[0].up.send(UpFrame::Eof).unwrap();
        assert_eq!(
            coord.up.recv().unwrap(),
            (
                1,
                UpFrame::Batch {
                    msgs: vec![7u32, 8],
                    items: 5
                }
            )
        );
        assert_eq!(coord.up.recv().unwrap(), (0, UpFrame::Eof));
        coord.downs[0].send(&42).unwrap();
        assert_eq!(sites[0].down.recv().unwrap(), 42);
        // Closing the down link ends the site's drain loop.
        for d in &mut coord.downs {
            d.close();
        }
        assert!(sites[0].down.recv().is_err());
        assert!(sites[1].down.recv().is_err());
    }

    #[test]
    fn up_send_fails_after_coordinator_gone() {
        let (mut sites, coord) = channel_wiring::<u32, u32>(1, 4);
        drop(coord);
        assert!(matches!(
            sites[0].up.send(UpFrame::Eof),
            Err(TransportError::Closed)
        ));
    }

    #[test]
    fn down_send_to_departed_site_reports_closed() {
        let (sites, mut coord) = channel_wiring::<u32, u32>(1, 4);
        drop(sites);
        assert!(matches!(
            coord.downs[0].send(&1),
            Err(TransportError::Closed)
        ));
    }
}
