//! Runtime tuning knobs.

/// The fewest messages a site's batch ships with ahead of `batch_max`:
/// once an item adds an early message and the batch holds this many, the
/// batch ships (see [`RuntimeConfig`]'s `batch_max`).
pub(crate) const PROMPT_FLUSH_MIN: usize = 8;

/// Configuration for the threads and epoll engines (and, but for
/// `queue_capacity`, the daemon's attach client).
///
/// The knobs trade latency for throughput:
///
/// * `batch_max` — a site buffers upstream messages and ships them as one
///   transport frame once this many have accumulated (the tail is always
///   flushed at end-of-stream). Larger batches amortize channel wakeups and
///   socket syscalls; smaller batches tighten the staleness window in which
///   the coordinator has not yet seen a site's candidates. A batch also
///   ships ahead of `batch_max` once it holds `PROMPT_FLUSH_MIN` = 8
///   messages or more and the item just observed added an early message
///   (a constant, not a knob; a `batch_max` below 8 still ships at
///   `batch_max`). Earlies are
///   the messages whose delay costs: a level saturates after `4rs` of
///   them, and every early still in flight after that is stale. On
///   `zipf_iid:1.1` at s = 64 the rule cut epoll's messages at k = 64
///   from about 2.1× lockstep's count to about 1.2×; a threshold of 16
///   gave 1.26–1.35× and 1 halved items/s.
/// * `queue_capacity` — bound (in batches) of each coordinator's
///   site→coordinator path: bounded backpressure instead of unbounded
///   buffering, with one meaning on both engines. It counts credits from
///   the moment a site ships a batch until its coordinator takes it off
///   its queue, so batches in the up channel (threads) or parked in send
///   buffers, kernel socket buffers and the reactor's handoff (epoll) all
///   count; a site stops pulling input while its coordinator's credits
///   are used up, and its worker moves on to other sites instead of
///   blocking. Trees bound each group's aggregator separately, and the
///   root link to as many sync frames, past which an aggregator's send
///   blocks. The down path is deliberately *unbounded* and eagerly
///   drained, which is what makes the bounded up path deadlock-free (see
///   `crate::engine`).
///
///   The default is 32 batches: at most 2,048 messages in flight at the
///   default batch of 64, a ceiling, since a batch that an early ships
///   carries 8–64. Every message a site sends from a state older than the
///   coordinator's is a *stale* message the lockstep model never sends
///   (`CoordStats::stale_regular`/`stale_early` count them). A wider
///   window lets a fast site run further ahead of the thresholds and
///   saturations it has been sent, so it sends more stale messages; a
///   narrower one makes sites wait on the coordinator. 32 is a measured
///   constant, not derived from `k`, `s` or `r`: on `zipf_iid:1.1` at
///   s = 64 it sent fewer messages than 128 at no loss of items/s, and 16
///   lost 8–12% of items/s on epoll at k = 256 and k = 1,000. For scale,
///   a level saturates after `4rs` early messages; 2,048 is four times
///   that at s = 64 and r = 2 (k ≤ 2s), but half of it at k = 1,000
///   (r = 15.625, `4rs` = 4,000).
/// * `down_poll_every` — items a site observes between polls of its down
///   link. Each poll is an atomic-laden channel drain (or a nonblocking
///   socket read on the epoll engine), so polling every item costs real
///   hot-path throughput; polling rarely widens the staleness window in
///   which a site keeps shipping candidates a fresher threshold would have
///   filtered. The protocols tolerate arbitrarily stale thresholds by
///   design (delayed-delivery regime), so this knob trades
///   threshold-propagation latency — and with it some message-count
///   inflation — against per-item overhead, never correctness. High-k
///   epoll runs can raise it to cut syscalls, or lower it toward 1 to
///   tighten threshold propagation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RuntimeConfig {
    /// Upstream messages per transport frame before a flush is forced.
    pub batch_max: usize,
    /// Site→coordinator bound per coordinator, in batches.
    pub queue_capacity: usize,
    /// Items a site observes between polls of its down link.
    pub down_poll_every: u32,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        Self {
            batch_max: 64,
            queue_capacity: 32,
            down_poll_every: 32,
        }
    }
}

impl RuntimeConfig {
    /// Default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the batch flush threshold (clamped to ≥ 1).
    pub fn with_batch_max(mut self, batch_max: usize) -> Self {
        self.batch_max = batch_max.max(1);
        self
    }

    /// Sets the up-path bound in batches (clamped to ≥ 1).
    pub fn with_queue_capacity(mut self, queue_capacity: usize) -> Self {
        self.queue_capacity = queue_capacity.max(1);
        self
    }

    /// Sets the down-link poll cadence in items (clamped to ≥ 1; 1 polls
    /// before every item like the lockstep runner's prompt-delivery mode).
    pub fn with_down_poll_every(mut self, down_poll_every: u32) -> Self {
        self.down_poll_every = down_poll_every.max(1);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_clamp_to_one() {
        let cfg = RuntimeConfig::new()
            .with_batch_max(0)
            .with_queue_capacity(0)
            .with_down_poll_every(0);
        assert_eq!(cfg.batch_max, 1);
        assert_eq!(cfg.queue_capacity, 1);
        assert_eq!(cfg.down_poll_every, 1);
        let cfg = RuntimeConfig::new().with_batch_max(256);
        assert_eq!(cfg.batch_max, 256);
        assert_eq!(cfg.queue_capacity, RuntimeConfig::default().queue_capacity);
        assert_eq!(cfg.down_poll_every, 32);
    }
}
