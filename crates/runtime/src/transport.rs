//! The pluggable transport abstraction.
//!
//! A deployment is `k` site links plus one coordinator endpoint. The
//! coordinator's receiving half is always a `std::sync::mpsc` receiver
//! (the epoll engine's reactor bridges its sockets onto one); its down
//! senders are trait objects ([`DownSender`]: an in-process channel, a
//! reactor connection's send buffer, or the daemon's framed socket
//! writer). Site tasks reach their coordinator through the site
//! scheduler's `SiteLink`: `channel_links` wires the threads engine's,
//! the epoll engine wires sockets. The tree's aggregator→root hop is one
//! bounded in-process channel on both engines, built by
//! [`crate::tree`].
//!
//! Queue discipline (the deadlock-freedom invariant, see `crate::engine`):
//! the site→coordinator path is **bounded** by credits that the
//! coordinator returns as it takes each batch (the root hop: by its
//! channel's capacity, a `send` blocking while it is full), while the
//! coordinator→site path is **unbounded** and eagerly drained.

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

/// Site-side sending half of the up path. On the daemon's attach client
/// `send` blocks while the socket is full — that is the backpressure; a
/// pooled site's link never blocks, and credits bound it instead.
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

/// The coordinator's merged inbound queue plus one down link per site.
pub(crate) struct CoordEndpoint<U, D> {
    pub(crate) up: UpRx<U>,
    pub(crate) downs: Vec<Box<dyn DownSender<D>>>,
}

/// The coordinator's end of the up path. Under the site pool the queue
/// is unbounded and the sites' credit pool is the bound, so taking a
/// BATCH frame off it is what returns the frame's credit; the tree's
/// root link is bounded by its channel's capacity and has no pool.
pub(crate) struct UpRx<U> {
    rx: mpsc::Receiver<(usize, UpFrame<U>)>,
    credits: Option<Arc<CreditPool>>,
}

impl<U> UpRx<U> {
    /// A queue whose BATCH frames, when taken, return their credit to
    /// `credits`, if there is a pool.
    pub(crate) fn new(
        rx: mpsc::Receiver<(usize, UpFrame<U>)>,
        credits: Option<Arc<CreditPool>>,
    ) -> UpRx<U> {
        UpRx { rx, credits }
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

/// Down sender over a per-site unbounded channel, waking the worker the
/// site runs on with every send and with the close.
struct ChannelDownSender<D> {
    tx: Option<mpsc::Sender<D>>,
    waker: Arc<Waker>,
}

impl<D: Clone + Send> DownSender<D> for ChannelDownSender<D> {
    fn send(&mut self, msg: &D) -> Result<(), TransportError> {
        let sent = match &self.tx {
            Some(tx) => tx.send(msg.clone()).map_err(|_| TransportError::Closed),
            None => Err(TransportError::Closed),
        };
        self.waker.wake();
        sent
    }
    fn close(&mut self) {
        self.tx = None;
        self.waker.wake();
    }
}

/// A close is an event a draining site waits on, so dropping the sender
/// closes and wakes too: a coordinator may die without calling `close`
/// (a panic unwinding its loop).
impl<D> Drop for ChannelDownSender<D> {
    fn drop(&mut self) {
        self.tx = None;
        self.waker.wake();
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
            waker: Arc::clone(pool.waker(first + site)),
        }));
    }
    let up = UpRx::new(up_rx, Some(Arc::clone(credits)));
    (links, CoordEndpoint { up, downs })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_wiring_routes_up_and_down() {
        let pool = Pool::new(2).unwrap();
        let credits = pool.credits(4);
        let (mut links, mut coord) = channel_links::<u32, u32>(&pool, 0, 2, &credits);
        let batch = UpFrame::Batch {
            msgs: vec![7, 8],
            items: 5,
        };
        links[1].send(batch.clone()).unwrap();
        links[0].send(UpFrame::Eof).unwrap();
        assert_eq!(coord.up.try_recv(), Some((1, batch)));
        assert_eq!(coord.up.try_recv(), Some((0, UpFrame::Eof)));
        coord.downs[0].send(&42).unwrap();
        assert_eq!(links[0].down.try_recv(), Ok(42));
        // Closing the down links ends the sites' drains.
        for d in &mut coord.downs {
            d.close();
        }
        for link in &links {
            assert_eq!(link.down.try_recv(), Err(mpsc::TryRecvError::Disconnected));
        }
    }

    #[test]
    fn up_send_fails_after_coordinator_gone() {
        let pool = Pool::new(1).unwrap();
        let credits = pool.credits(4);
        let (mut links, coord) = channel_links::<u32, u32>(&pool, 0, 1, &credits);
        drop(coord);
        assert!(matches!(
            links[0].send(UpFrame::Eof),
            Err(TransportError::Closed)
        ));
    }

    #[test]
    fn down_send_to_departed_site_reports_closed() {
        let pool = Pool::new(1).unwrap();
        let credits = pool.credits(4);
        let (links, mut coord) = channel_links::<u32, u32>(&pool, 0, 1, &credits);
        drop(links);
        assert!(matches!(
            coord.downs[0].send(&1),
            Err(TransportError::Closed)
        ));
    }
}
