//! Fixed-capacity trace rings for structured runtime events.
//!
//! A [`TraceRing`] is a preallocated circular buffer of [`TraceEvent`]s:
//! recording overwrites the oldest slot in place — no allocation on the
//! hot path — and stamps each event with a per-ring sequence number and
//! nanoseconds since the ring's epoch. The daemon keeps one ring per
//! stream (attach/detach/sync/drain history) plus one daemon-level ring
//! (connections, ctrl errors, shutdown); scrapes copy the newest events
//! out under the stream's lock, between two of its commands.

use std::sync::Mutex;
use std::time::Instant;

use dwrs_core::ctrl::TraceEvent;

/// The structured event vocabulary. Codes are wire-stable: they appear in
/// [`TraceEvent::code`] and the operator catalog in `docs/DAEMON.md`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceKind {
    /// A stream was created (`a` = k slots, `b` = effective sample size).
    Create,
    /// A site attached to a fresh slot (`a` = site).
    Attach,
    /// A site detached, slot kept resumable (`a` = site, `b` = items fed).
    Detach,
    /// A previously detached slot reattached (`a` = site, `b` = prior items).
    Reconnect,
    /// The coordinator broadcast a new epoch threshold (`a` = the
    /// threshold's `f64::to_bits`).
    EpochBroadcast,
    /// The coordinator broadcast a level saturation (`a` = level).
    Saturation,
    /// A tree tier completed a sync round (`a` = group, `b` = round).
    Sync,
    /// A site finished its feed with Eof (`a` = site, `b` = items fed).
    Eof,
    /// A drain completed and the stream retired (`b` = total items).
    Drain,
    /// A control request was refused (`a` = request tag byte).
    CtrlError,
    /// A connection was accepted (`a` = connection ordinal).
    Connection,
    /// The daemon began shutdown (`a` = streams still live).
    Shutdown,
    /// An accept failed on `EMFILE`/`ENFILE` (`a` = the current
    /// `RLIMIT_NOFILE` soft limit).
    FdExhausted,
}

impl TraceKind {
    /// The wire code carried in [`TraceEvent::code`].
    pub fn as_u8(self) -> u8 {
        match self {
            TraceKind::Create => 1,
            TraceKind::Attach => 2,
            TraceKind::Detach => 3,
            TraceKind::Reconnect => 4,
            TraceKind::EpochBroadcast => 5,
            TraceKind::Saturation => 6,
            TraceKind::Sync => 7,
            TraceKind::Eof => 8,
            TraceKind::Drain => 9,
            TraceKind::CtrlError => 10,
            TraceKind::Connection => 11,
            TraceKind::Shutdown => 12,
            TraceKind::FdExhausted => 13,
        }
    }

    /// Decodes a wire code.
    pub fn from_u8(b: u8) -> Option<Self> {
        Self::all().into_iter().find(|k| k.as_u8() == b)
    }

    /// The operator-facing event name (the trace catalog key).
    pub fn name(self) -> &'static str {
        match self {
            TraceKind::Create => "create",
            TraceKind::Attach => "attach",
            TraceKind::Detach => "detach",
            TraceKind::Reconnect => "reconnect",
            TraceKind::EpochBroadcast => "epoch-broadcast",
            TraceKind::Saturation => "saturation",
            TraceKind::Sync => "sync",
            TraceKind::Eof => "eof",
            TraceKind::Drain => "drain",
            TraceKind::CtrlError => "ctrl-error",
            TraceKind::Connection => "connection",
            TraceKind::Shutdown => "shutdown",
            TraceKind::FdExhausted => "fd-exhausted",
        }
    }

    /// All kinds, in wire-code order.
    pub fn all() -> [TraceKind; 13] {
        [
            TraceKind::Create,
            TraceKind::Attach,
            TraceKind::Detach,
            TraceKind::Reconnect,
            TraceKind::EpochBroadcast,
            TraceKind::Saturation,
            TraceKind::Sync,
            TraceKind::Eof,
            TraceKind::Drain,
            TraceKind::CtrlError,
            TraceKind::Connection,
            TraceKind::Shutdown,
            TraceKind::FdExhausted,
        ]
    }
}

/// The operator-facing name for a wire code, `"event-NN"` for codes this
/// build does not know (forward compatibility across versions).
pub fn event_name(code: u8) -> String {
    match TraceKind::from_u8(code) {
        Some(k) => k.name().to_string(),
        None => format!("event-{code}"),
    }
}

/// Default ring capacity: enough to hold a stream's recent protocol
/// history without ever growing.
pub const DEFAULT_RING_CAPACITY: usize = 128;

struct RingInner {
    /// Preallocated storage; len grows to capacity once, then stays.
    buf: Vec<TraceEvent>,
    /// Index of the slot the next event overwrites.
    head: usize,
    /// Sequence number of the next event (total events ever recorded).
    seq: u64,
}

/// A fixed-capacity, allocation-free-once-built event ring.
pub struct TraceRing {
    epoch: Instant,
    inner: Mutex<RingInner>,
}

impl std::fmt::Debug for TraceRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock().expect("trace ring poisoned");
        f.debug_struct("TraceRing")
            .field("capacity", &inner.buf.capacity())
            .field("seq", &inner.seq)
            .finish()
    }
}

impl TraceRing {
    /// A ring that keeps the newest `capacity` events, stamping them
    /// relative to `epoch` (share one epoch across rings so timestamps in
    /// one report are comparable).
    pub fn with_epoch(capacity: usize, epoch: Instant) -> Self {
        assert!(capacity > 0, "trace ring capacity must be positive");
        Self {
            epoch,
            inner: Mutex::new(RingInner {
                buf: Vec::with_capacity(capacity),
                head: 0,
                seq: 0,
            }),
        }
    }

    /// Records one event, overwriting the oldest slot when full. Returns
    /// the event's sequence number. No allocation once the ring has
    /// wrapped; before that, slots are appended into preallocated space.
    pub fn record(&self, kind: TraceKind, a: u64, b: u64) -> u64 {
        let nanos = self.epoch.elapsed().as_nanos() as u64;
        let mut inner = self.inner.lock().expect("trace ring poisoned");
        let seq = inner.seq;
        let event = TraceEvent {
            seq,
            nanos,
            code: kind.as_u8(),
            a,
            b,
        };
        let head = inner.head;
        if inner.buf.len() < inner.buf.capacity() {
            inner.buf.push(event);
        } else {
            inner.buf[head] = event;
        }
        inner.head = (head + 1) % inner.buf.capacity();
        inner.seq += 1;
        seq
    }

    /// Copies out the newest `last` events, oldest first.
    pub fn snapshot(&self, last: usize) -> Vec<TraceEvent> {
        let inner = self.inner.lock().expect("trace ring poisoned");
        let len = inner.buf.len();
        let take = last.min(len);
        let mut out = Vec::with_capacity(take);
        // Events in chronological order start at `head` when full, at 0
        // before the first wrap.
        let start = if len < inner.buf.capacity() {
            0
        } else {
            inner.head
        };
        for i in (len - take)..len {
            out.push(inner.buf[(start + i) % len.max(1)]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_roundtrip_and_names_are_unique() {
        let mut names = std::collections::BTreeSet::new();
        for k in TraceKind::all() {
            assert_eq!(TraceKind::from_u8(k.as_u8()), Some(k));
            assert!(names.insert(k.name()), "duplicate name {}", k.name());
        }
        assert_eq!(TraceKind::from_u8(0), None);
        assert_eq!(event_name(TraceKind::Sync.as_u8()), "sync");
        assert_eq!(event_name(250), "event-250");
    }

    #[test]
    fn ring_keeps_newest_in_order() {
        let ring = TraceRing::with_epoch(4, Instant::now());
        for i in 0..10u64 {
            let seq = ring.record(TraceKind::Attach, i, 0);
            assert_eq!(seq, i);
        }
        let snap = ring.snapshot(16);
        let seqs: Vec<u64> = snap.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, [6, 7, 8, 9], "newest capacity-many, oldest first");
        let two = ring.snapshot(2);
        assert_eq!(two.len(), 2);
        assert_eq!(two[0].seq, 8);
        assert_eq!(two[1].seq, 9);
        assert!(snap.windows(2).all(|w| w[0].nanos <= w[1].nanos));
    }

    #[test]
    fn partial_ring_snapshots_from_start() {
        let ring = TraceRing::with_epoch(8, Instant::now());
        ring.record(TraceKind::Create, 1, 2);
        ring.record(TraceKind::Eof, 3, 4);
        let snap = ring.snapshot(8);
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].code, TraceKind::Create.as_u8());
        assert_eq!(snap[0].a, 1);
        assert_eq!(snap[1].b, 4);
        assert!(ring.snapshot(0).is_empty());
    }
}
