//! The pluggable transport abstraction.
//!
//! A deployment is `k` site endpoints plus one coordinator endpoint. Only
//! the *sending* halves differ between transports (an in-process channel
//! sender, a framed socket writer, or a reactor connection's send
//! buffer), so those are trait objects; the receiving halves are always
//! `std::sync::mpsc` receivers — the socket transports bridge sockets
//! onto channels, through the epoll engine's reactor or the blocking
//! reader threads of [`crate::tcp`].
//!
//! Queue discipline (the deadlock-freedom invariant, see `crate::engine`):
//! the site→coordinator path is **bounded** (blocking `send` = backpressure,
//! or on epoll credits that the coordinator returns as it takes each
//! batch) while the coordinator→site path is **unbounded** and eagerly
//! drained.

use std::sync::{mpsc, Arc};

use crate::epoll::CreditPool;

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

/// Site-side sending half of the up path. `send` blocks when the bounded
/// queue is full — that is the backpressure mechanism.
pub trait BatchSender<U>: Send {
    /// Ships one frame; blocks under backpressure.
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

/// The coordinator's end of the up path. On epoll the queue is unbounded
/// and the sites' credit pool is the bound, so taking a BATCH frame off
/// it is what returns the frame's credit; every other wiring has no pool.
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

impl<U> std::fmt::Debug for ChannelBatchSender<U> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ChannelBatchSender(site {})", self.site)
    }
}

/// Down sender over a per-site unbounded channel.
struct ChannelDownSender<D> {
    tx: Option<mpsc::Sender<D>>,
}

impl<D: Clone + Send> DownSender<D> for ChannelDownSender<D> {
    fn send(&mut self, msg: &D) -> Result<(), TransportError> {
        match &self.tx {
            Some(tx) => tx.send(msg.clone()).map_err(|_| TransportError::Closed),
            None => Err(TransportError::Closed),
        }
    }
    fn close(&mut self) {
        self.tx = None;
    }
}

impl<D> std::fmt::Debug for ChannelDownSender<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ChannelDownSender")
    }
}

/// Builds a fully in-process deployment: one bounded up channel shared by
/// all sites, one unbounded down channel per site.
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
        downs.push(Box::new(ChannelDownSender { tx: Some(down_tx) }));
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
