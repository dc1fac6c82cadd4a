//! Protocol traits: what a site and a coordinator must implement to run
//! under the [`crate::runner::Runner`].

use dwrs_core::Item;

/// Message metadata used by the metrics layer.
///
/// `units` is the number of wire messages this value represents; protocols
/// that batch several logical messages into one value (e.g. the L1 tracker's
/// duplicated updates) report the faithful count here so measured message
/// complexity matches the unbatched protocol.
pub trait Meter {
    /// Short label for aggregation (e.g. `"early"`, `"regular"`).
    fn kind(&self) -> &'static str;
    /// Number of wire messages represented (default 1).
    fn units(&self) -> u64 {
        1
    }
    /// Encoded size in bytes.
    ///
    /// The default charges exactly **two machine words per wire message**
    /// (`2 × WORD_BYTES = 16` bytes) — the paper's Section 2.1 cost model,
    /// where every message carries O(1) words of Θ(log nW) bits and
    /// message count equals word count up to constants. It is a *model*
    /// figure for protocols without a codec, not a measured size: protocols
    /// with a real byte encoding must override it (the weighted SWOR
    /// messages report their exact `swor::wire` frame sizes of 5–25 bytes,
    /// still O(1) words but not equal to the default — asserted by
    /// `swor_meter_uses_exact_frame_sizes` in `adapters`).
    fn wire_bytes(&self) -> u64 {
        2 * (dwrs_core::swor::wire::WORD_BYTES as u64) * self.units()
    }
    /// Whether this is an *early* message: an item forwarded for a level
    /// its sender still believes unsaturated. A level saturates after
    /// `4rs` of them, and every early still in flight after that is
    /// stale, so the concurrent engines' site driver ships a batch
    /// promptly once an item adds one (`dwrs-runtime`'s `SiteCore`).
    /// False by default; the weighted SWOR `UpMsg::Early` says true.
    fn is_early(&self) -> bool {
        false
    }
}

/// Site-side protocol endpoint.
pub trait SiteNode {
    /// Site → coordinator message type.
    type Up: Meter;
    /// Coordinator → site message type.
    type Down: Meter + Clone;

    /// Processes one stream item, pushing any upstream messages to `out`.
    fn observe(&mut self, item: Item, out: &mut Vec<Self::Up>);

    /// Processes one downstream message.
    fn receive(&mut self, msg: &Self::Down);

    /// Called once after the site's stream is exhausted, before the final
    /// flush: protocols whose answer is assembled at end-of-stream (e.g.
    /// the sliding-window sampler shipping its retained set) push their
    /// closing messages here. The default is a no-op — per-item protocols
    /// need nothing at shutdown.
    fn finish(&mut self, out: &mut Vec<Self::Up>) {
        let _ = out;
    }
}

/// Coordinator-side protocol endpoint.
pub trait CoordinatorNode {
    /// Site → coordinator message type.
    type Up: Meter;
    /// Coordinator → site message type.
    type Down: Meter + Clone;

    /// Processes one upstream message from site `from`, pushing responses
    /// into `out`.
    fn receive(&mut self, from: usize, msg: Self::Up, out: &mut Outbox<Self::Down>);
}

/// Collector for coordinator responses within one round.
#[derive(Debug)]
pub struct Outbox<D> {
    pub(crate) unicasts: Vec<(usize, D)>,
    pub(crate) broadcasts: Vec<D>,
}

impl<D> Default for Outbox<D> {
    fn default() -> Self {
        Self {
            unicasts: Vec::new(),
            broadcasts: Vec::new(),
        }
    }
}

impl<D> Outbox<D> {
    /// New empty outbox.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sends `msg` to a single site (costs 1 message).
    pub fn unicast(&mut self, to: usize, msg: D) {
        self.unicasts.push((to, msg));
    }

    /// Sends `msg` to every site (costs `k` messages, per the paper's
    /// accounting).
    pub fn broadcast(&mut self, msg: D) {
        self.broadcasts.push(msg);
    }

    /// Removes and returns everything queued: `(unicasts, broadcasts)`.
    /// This is how execution substrates (the lockstep [`crate::Runner`],
    /// the `dwrs-runtime` threads/epoll engines) route coordinator responses.
    pub fn take(&mut self) -> (Vec<(usize, D)>, Vec<D>) {
        (
            std::mem::take(&mut self.unicasts),
            std::mem::take(&mut self.broadcasts),
        )
    }

    /// Whether nothing was queued.
    pub fn is_empty(&self) -> bool {
        self.unicasts.is_empty() && self.broadcasts.is_empty()
    }

    /// Drops all queued messages (between rounds).
    pub fn clear(&mut self) {
        self.unicasts.clear();
        self.broadcasts.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outbox_collects() {
        let mut ob: Outbox<u32> = Outbox::new();
        assert!(ob.is_empty());
        ob.unicast(3, 7);
        ob.broadcast(9);
        assert!(!ob.is_empty());
        assert_eq!(ob.unicasts, vec![(3, 7)]);
        assert_eq!(ob.broadcasts, vec![9]);
        ob.clear();
        assert!(ob.is_empty());
    }

    #[test]
    fn outbox_take_drains() {
        let mut ob: Outbox<u32> = Outbox::new();
        ob.unicast(1, 5);
        ob.broadcast(6);
        let (uni, bcast) = ob.take();
        assert_eq!(uni, vec![(1, 5)]);
        assert_eq!(bcast, vec![6]);
        assert!(ob.is_empty());
    }
}
