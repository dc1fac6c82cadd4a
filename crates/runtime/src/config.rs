//! Runtime tuning knobs.

/// Configuration for the threads and epoll engines (and the daemon's
/// attach client).
///
/// The knobs trade latency for throughput:
///
/// * `batch_max` — a site buffers upstream messages and ships them as one
///   transport frame once this many have accumulated (the tail is always
///   flushed at end-of-stream). Larger batches amortize channel wakeups and
///   socket syscalls; smaller batches tighten the staleness window in which
///   the coordinator has not yet seen a site's candidates.
/// * `queue_capacity` — bound (in batches) of each coordinator's
///   site→coordinator path: bounded-queue backpressure instead of
///   unbounded buffering. On threads it is the up channel's capacity, and
///   site `send`s block when the coordinator falls behind. On epoll it
///   counts credits from the moment a site encodes a batch until its
///   coordinator takes it, so batches parked in send buffers and kernel
///   socket buffers count too; a site stops pulling input while its
///   coordinator's credits are used up. Trees bound each group's
///   aggregator separately. The down path is deliberately *unbounded* and
///   eagerly drained, which is what makes the bounded up path
///   deadlock-free (see `crate::engine`).
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
            queue_capacity: 128,
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
