//! Readiness-driven I/O primitives for the site pool and the epoll engine.
//!
//! This module is the bottom layer of the site scheduler
//! ([`crate::engine`]) and of the `epoll` engine ([`crate::epoll`]):
//! a thin wrapper over the kernel's `epoll` facility plus the two buffer
//! types every registered connection carries. Nothing here knows about the
//! sampling protocols — it only moves bytes and frames:
//!
//! * `Poller` — registration/readiness abstraction over `epoll_create1` /
//!   `epoll_ctl` / `epoll_wait`, declared directly against the C ABI because
//!   the build environment is registry-less (no `libc` crate, no async
//!   runtime). The epoll descriptor is an [`OwnedFd`], so it closes on drop.
//! * `Waker` — cross-thread wakeup for a blocked `epoll_wait`, built on a
//!   [`UnixStream`] pair instead of `eventfd` to keep the FFI surface
//!   minimal; also a [`std::task::Waker`], the form item feeds are handed.
//! * `RecvBuf` — partial-frame reassembly with `FramedReader` semantics:
//!   the same `[u32 len][payload]` framing, the same `MAX_FRAME_LEN` guard
//!   *before* buffering a payload, and mid-frame EOF detectable by the
//!   caller. A frame split at any byte boundary — including inside the
//!   4-byte length prefix — reassembles exactly.
//! * `SendBuf` — an append-only frame buffer flushed opportunistically on
//!   write readiness. The soft capacity is advisory: producers consult
//!   `SendBuf::over_cap` and stop generating (backpressure) rather than
//!   the buffer refusing writes, which preserves the engine invariant that
//!   down-path sends never block or fail.
//!
//! Also here: the `RLIMIT_NOFILE` helpers the engines and daemon call at
//! start-up so thousands of registered connections hit a raised soft limit
//! instead of `EMFILE` panics.

use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use dwrs_core::framed::MAX_FRAME_LEN;

// ------------------------------------------------------------------ FFI

/// The slice of the C ABI the reactor needs, declared by hand: the build
/// environment has no registry access, so the `libc` crate is unavailable.
/// Constants and layouts are the Linux userspace ABI (stable by contract).
mod sys {
    /// `epoll_event.data` is a union in C; we only ever store the `u64`
    /// token. The kernel ABI packs the struct on x86-64 only (12 bytes);
    /// every other Linux arch uses natural alignment (16 bytes, 4 bytes of
    /// padding after `events`). Mirror that per-arch, and assert the size
    /// so a future arch with a third layout fails at compile time instead
    /// of letting `epoll_wait` scribble past the event array.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub token: u64,
    }

    const _: () = assert!(
        std::mem::size_of::<EpollEvent>() == if cfg!(target_arch = "x86_64") { 12 } else { 16 },
        "EpollEvent layout does not match the kernel's struct epoll_event on this target"
    );

    #[repr(C)]
    pub struct Rlimit {
        pub cur: u64,
        pub max: u64,
    }

    pub const EPOLL_CLOEXEC: i32 = 0o2000000;
    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLL_CTL_MOD: i32 = 3;

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;

    pub const RLIMIT_NOFILE: i32 = 7;

    extern "C" {
        pub fn epoll_create1(flags: i32) -> i32;
        pub fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        pub fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        pub fn getrlimit(resource: i32, rlim: *mut Rlimit) -> i32;
        pub fn setrlimit(resource: i32, rlim: *const Rlimit) -> i32;
    }
}

/// One readiness notification out of [`Poller::wait`].
#[derive(Clone, Copy, Debug)]
pub(crate) struct PollEvent {
    /// The token the fd was registered with.
    pub token: u64,
    /// Data can be read (or the peer half-closed: `EPOLLRDHUP`/`EPOLLHUP`
    /// are folded in, so the read path observes the EOF).
    pub readable: bool,
    /// The socket accepts writes again.
    pub writable: bool,
    /// The connection is dead (`EPOLLHUP`/`EPOLLERR`). These conditions are
    /// reported regardless of the interest mask, so a loop that has dropped
    /// read interest must still observe them and tear the connection down —
    /// level-triggered, they would otherwise re-fire every wait.
    pub hangup: bool,
}

/// Registration/readiness abstraction over an epoll instance.
///
/// Level-triggered (the epoll default): an event keeps firing while the
/// condition holds, so a loop that services *some* of a connection's bytes
/// per pass never loses the rest. Write interest is toggled on only while a
/// [`SendBuf`] holds unflushed bytes — level-triggered `EPOLLOUT` on an
/// idle socket would otherwise spin the loop.
#[derive(Debug)]
pub(crate) struct Poller {
    epfd: OwnedFd,
}

impl Poller {
    /// Creates an epoll instance (close-on-exec).
    pub fn new() -> io::Result<Poller> {
        // SAFETY: epoll_create1 takes no pointers; the flags value is one
        // of the kernel-defined constants.
        let fd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Poller {
            // SAFETY: the syscall just returned `fd` (>= 0 checked above),
            // so it is a freshly opened descriptor this process owns and
            // nothing else will close; OwnedFd takes over that ownership.
            epfd: unsafe { OwnedFd::from_raw_fd(fd) },
        })
    }

    fn ctl(
        &self,
        op: i32,
        fd: RawFd,
        token: u64,
        readable: bool,
        writable: bool,
    ) -> io::Result<()> {
        let mut ev = sys::EpollEvent {
            events: interest_mask(readable, writable),
            token,
        };
        // SAFETY: `ev` is a live, properly initialized EpollEvent for the
        // duration of the call; the kernel only reads it during epoll_ctl.
        let rc = unsafe { sys::epoll_ctl(self.epfd.as_raw_fd(), op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Registers `fd` under `token` with the given interest set.
    pub fn register(
        &self,
        fd: RawFd,
        token: u64,
        readable: bool,
        writable: bool,
    ) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_ADD, fd, token, readable, writable)
    }

    /// Removes `fd` from the interest list. (`ctl` passes an event even
    /// here: pre-2.6.9 kernels required a non-null pointer for DEL.)
    pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_DEL, fd, 0, false, false)
    }

    /// Brings `fd`'s registration from `registered` to `want`, a
    /// `(readable, writable)` interest set or `None` for none at all.
    /// `registered` records what the poller holds, so a failed call is
    /// retried the next time.
    pub fn reconcile(
        &self,
        fd: RawFd,
        token: u64,
        registered: &mut Option<(bool, bool)>,
        want: Option<(bool, bool)>,
    ) {
        if *registered == want {
            return;
        }
        let done = match want {
            None => self.deregister(fd),
            Some((r, w)) if registered.is_some() => self.ctl(sys::EPOLL_CTL_MOD, fd, token, r, w),
            Some((r, w)) => self.register(fd, token, r, w),
        };
        if done.is_ok() {
            *registered = want;
        }
    }

    /// Blocks up to `timeout_ms` (`-1` = indefinitely) and appends ready
    /// events to `out`. Returns how many fired. `EINTR` reads as zero
    /// events rather than an error, so callers need no retry loop.
    pub fn wait(&self, out: &mut Vec<PollEvent>, timeout_ms: i32) -> io::Result<usize> {
        const MAX_EVENTS: usize = 256;
        let mut raw = [sys::EpollEvent {
            events: 0,
            token: 0,
        }; MAX_EVENTS];
        // SAFETY: `raw` holds MAX_EVENTS initialized EpollEvents and
        // maxevents passes exactly that capacity, so the kernel writes
        // only within the array; the buffer outlives the call.
        let n = unsafe {
            sys::epoll_wait(
                self.epfd.as_raw_fd(),
                raw.as_mut_ptr(),
                MAX_EVENTS as i32,
                timeout_ms,
            )
        };
        if n < 0 {
            let e = io::Error::last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(e);
        }
        for ev in &raw[..n as usize] {
            let bits = ev.events;
            out.push(PollEvent {
                token: ev.token,
                // Error and hang-up conditions surface through the read
                // path (read() reports the EOF or error), so fold them in.
                readable: bits & (sys::EPOLLIN | sys::EPOLLRDHUP | sys::EPOLLHUP | sys::EPOLLERR)
                    != 0,
                writable: bits & (sys::EPOLLOUT | sys::EPOLLERR) != 0,
                hangup: bits & (sys::EPOLLHUP | sys::EPOLLERR) != 0,
            });
        }
        Ok(n as usize)
    }
}

fn interest_mask(readable: bool, writable: bool) -> u32 {
    let mut m = 0;
    if readable {
        // RDHUP only alongside read interest: once a loop stops reading
        // (site sent Eof, downs still flowing) a level-triggered RDHUP
        // would re-fire every wait until the write side closes too.
        m |= sys::EPOLLIN | sys::EPOLLRDHUP;
    }
    if writable {
        m |= sys::EPOLLOUT;
    }
    m
}

// ----------------------------------------------------------------- waker

/// Token reserved for the wake channel in every reactor loop.
pub(crate) const WAKE_TOKEN: u64 = u64::MAX;

/// Cross-thread wakeup for a blocked [`Poller::wait`]: a nonblocking
/// byte written into a socketpair the poller watches. Coalescing is
/// deliberate — once `pending` is set, further wakes are no-ops until the
/// loop drains, so broadcast storms cost one byte, not one per message.
#[derive(Debug)]
pub(crate) struct Waker {
    tx: UnixStream,
    pending: AtomicBool,
}

impl Waker {
    /// Makes the poller's next (or current) `wait` return promptly.
    pub fn wake(&self) {
        if self.pending.swap(true, Ordering::AcqRel) {
            return;
        }
        // A full pipe already guarantees a pending wakeup; ignore errors.
        let _ = (&self.tx).write(&[1u8]);
    }
}

/// The same wake as a [`std::task::Waker`], the form an
/// [`crate::ItemFeed`] is handed.
impl std::task::Wake for Waker {
    fn wake(self: Arc<Self>) {
        Waker::wake(&self);
    }

    fn wake_by_ref(self: &Arc<Self>) {
        Waker::wake(self);
    }
}

/// The receive side a reactor loop registers under [`WAKE_TOKEN`].
#[derive(Debug)]
pub(crate) struct WakeRx {
    rx: UnixStream,
    waker: Arc<Waker>,
}

impl WakeRx {
    /// The fd to register for read interest.
    pub fn raw_fd(&self) -> RawFd {
        self.rx.as_raw_fd()
    }

    /// Consumes all queued wake bytes and re-arms the coalescing flag.
    ///
    /// Ordering matters: the pipe is emptied *before* `pending` clears.
    /// A `wake()` racing this call either lands its byte before the read
    /// loop finishes — and its flag is cleared with the byte consumed, so
    /// the next wake re-fires — or lands after, leaving a byte in the
    /// pipe with `pending` false, which costs one spurious poll wakeup.
    /// Clearing `pending` first instead would let the read loop consume a
    /// racing wake's byte while its flag stayed set, permanently disarming
    /// the waker (every later `wake()` no-ops against an empty pipe).
    pub fn drain(&mut self) {
        let mut buf = [0u8; 64];
        while matches!(self.rx.read(&mut buf), Ok(n) if n > 0) {}
        self.waker.pending.store(false, Ordering::Release);
    }
}

/// Builds a connected waker pair (both ends nonblocking).
pub(crate) fn wake_pair() -> io::Result<(Arc<Waker>, WakeRx)> {
    let (tx, rx) = UnixStream::pair()?;
    tx.set_nonblocking(true)?;
    rx.set_nonblocking(true)?;
    let waker = Arc::new(Waker {
        tx,
        pending: AtomicBool::new(false),
    });
    Ok((Arc::clone(&waker), WakeRx { rx, waker }))
}

// --------------------------------------------------------------- RecvBuf

/// Read size per [`RecvBuf::fill_from`] call: big enough to drain a full
/// kernel socket buffer in a few syscalls, small enough to keep per-
/// connection transient memory modest at thousands of connections.
const READ_CHUNK: usize = 16 * 1024;

/// Partial-frame reassembly buffer with [`FramedReader`]-equivalent
/// semantics (`[u32 LE len][payload]`, `MAX_FRAME_LEN` enforced before the
/// payload is buffered).
///
/// [`FramedReader`]: dwrs_core::framed::FramedReader
#[derive(Debug, Default)]
pub(crate) struct RecvBuf {
    buf: Vec<u8>,
    start: usize,
}

impl RecvBuf {
    pub fn new() -> RecvBuf {
        RecvBuf::default()
    }

    /// Performs one `read` into the buffer. Returns the byte count (0 =
    /// peer EOF); `WouldBlock` and other errors pass through untouched.
    pub fn fill_from(&mut self, r: &mut impl Read) -> io::Result<usize> {
        let mut chunk = [0u8; READ_CHUNK];
        let n = r.read(&mut chunk)?;
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(n)
    }

    /// Pops the next complete frame payload, or `None` if the buffered
    /// bytes end mid-frame (including mid-length-prefix). A length prefix
    /// over `MAX_FRAME_LEN` is `InvalidData`, checked before any payload
    /// accumulates — the same guard `FramedReader::read_blob` applies.
    pub fn next_frame(&mut self) -> io::Result<Option<&[u8]>> {
        let avail = self.buf.len() - self.start;
        if avail < 4 {
            self.compact();
            return Ok(None);
        }
        let len_bytes: [u8; 4] = self.buf[self.start..self.start + 4]
            .try_into()
            .expect("4 bytes checked");
        let len = u32::from_le_bytes(len_bytes) as usize;
        if len > MAX_FRAME_LEN as usize {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame length {len} exceeds cap {MAX_FRAME_LEN}"),
            ));
        }
        if avail < 4 + len {
            self.compact();
            return Ok(None);
        }
        let at = self.start + 4;
        self.start = at + len;
        Ok(Some(&self.buf[at..at + len]))
    }

    /// True when buffered bytes end inside a frame — a peer EOF now is a
    /// protocol violation (`FramedReader` reports `UnexpectedEof`).
    pub fn mid_frame(&self) -> bool {
        self.buf.len() > self.start
    }

    /// Reclaims consumed space. Cheap amortized: only copies when the
    /// consumed prefix dominates the buffer.
    fn compact(&mut self) {
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        } else if self.start > READ_CHUNK {
            self.buf.drain(..self.start);
            self.start = 0;
        }
    }
}

// --------------------------------------------------------------- SendBuf

/// Append-only frame buffer flushed on write readiness.
///
/// The capacity is a *soft* bound consulted by producers ([`SendBuf::
/// over_cap`]) — the up path stops pulling input while its buffer is over
/// cap (backpressure into the bounded dispatcher queues), and the down
/// path is allowed to run over (the coordinator must never block sending
/// down; sites drain eagerly, so the excess is transient).
#[derive(Debug)]
pub(crate) struct SendBuf {
    buf: Vec<u8>,
    start: usize,
    cap: usize,
}

impl SendBuf {
    /// A buffer whose producers throttle at `cap` pending bytes.
    pub fn with_cap(cap: usize) -> SendBuf {
        SendBuf {
            buf: Vec::new(),
            start: 0,
            cap: cap.max(1),
        }
    }

    /// Appends one `[u32 len][payload]` frame built by `fill`, enforcing
    /// the shared `MAX_FRAME_LEN` cap (same check as `FramedWriter`).
    pub fn frame_with(&mut self, fill: impl FnOnce(&mut Vec<u8>)) -> io::Result<()> {
        let at = self.buf.len();
        self.buf.extend_from_slice(&[0u8; 4]);
        fill(&mut self.buf);
        let len = self.buf.len() - at - 4;
        if len > MAX_FRAME_LEN as usize {
            self.buf.truncate(at);
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame length {len} exceeds cap {MAX_FRAME_LEN}"),
            ));
        }
        self.buf[at..at + 4].copy_from_slice(&(len as u32).to_le_bytes());
        Ok(())
    }

    /// Discards everything buffered (dead-connection teardown: the bytes
    /// have no destination anymore).
    pub fn clear(&mut self) {
        self.buf.clear();
        self.start = 0;
    }

    /// Unflushed bytes.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.start
    }

    pub fn is_empty(&self) -> bool {
        self.pending() == 0
    }

    /// True once pending bytes reach the soft cap — producers should stop
    /// generating until a flush drains below it.
    pub fn over_cap(&self) -> bool {
        self.pending() >= self.cap
    }

    /// Writes as much as the socket accepts. `WouldBlock` is not an error
    /// — the remainder stays buffered for the next write-readiness event.
    /// Returns the bytes written this call.
    pub fn flush_to(&mut self, w: &mut impl Write) -> io::Result<usize> {
        let mut written = 0usize;
        while self.start < self.buf.len() {
            match w.write(&self.buf[self.start..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ))
                }
                Ok(n) => {
                    self.start += n;
                    written += n;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        } else if self.start > self.cap {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        Ok(written)
    }
}

// ---------------------------------------------------------------- rlimit

/// Raises the `RLIMIT_NOFILE` soft limit to the hard limit and returns the
/// resulting soft limit. Called at daemon and engine start so thousands of
/// registered connections do not trip the conservative default (often
/// 1024). Idempotent; a failed raise still returns the current limit.
pub fn raise_nofile_limit() -> io::Result<u64> {
    let mut lim = sys::Rlimit { cur: 0, max: 0 };
    // SAFETY: `lim` is a live repr(C) Rlimit matching the kernel's struct
    // rlimit; getrlimit writes both fields and reads nothing else.
    let rc = unsafe { sys::getrlimit(sys::RLIMIT_NOFILE, &mut lim) };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    if lim.cur < lim.max {
        let want = sys::Rlimit {
            cur: lim.max,
            max: lim.max,
        };
        // SAFETY: `want` is fully initialized and only read by the kernel.
        if unsafe { sys::setrlimit(sys::RLIMIT_NOFILE, &want) } == 0 {
            lim.cur = lim.max;
        }
    }
    Ok(lim.cur)
}

/// The current `RLIMIT_NOFILE` soft limit, for diagnostics (0 if even the
/// query fails).
pub(crate) fn current_nofile_limit() -> u64 {
    let mut lim = sys::Rlimit { cur: 0, max: 0 };
    // SAFETY: same contract as in `raise_nofile_limit` — `lim` is a live,
    // correctly laid out out-parameter for the syscall.
    if unsafe { sys::getrlimit(sys::RLIMIT_NOFILE, &mut lim) } < 0 {
        return 0;
    }
    lim.cur
}

/// True when `e` is the process (`EMFILE`) or system (`ENFILE`) descriptor
/// table running out — the condition
/// [`RuntimeError::FdExhausted`](crate::RuntimeError::FdExhausted) types.
pub(crate) fn is_fd_exhausted(e: &io::Error) -> bool {
    matches!(e.raw_os_error(), Some(23) | Some(24)) // ENFILE | EMFILE
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    /// A reader that yields at most one byte per `read` call — the most
    /// hostile split pattern a TCP stream can legally produce.
    struct OneByte<R: Read>(R);
    impl<R: Read> Read for OneByte<R> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = buf.len().min(1);
            self.0.read(&mut buf[..n])
        }
    }

    fn frame(payload: &[u8]) -> Vec<u8> {
        let mut out = (payload.len() as u32).to_le_bytes().to_vec();
        out.extend_from_slice(payload);
        out
    }

    #[test]
    fn reassembles_frames_from_one_byte_reads() {
        // Three frames — tiny, single-byte, and multi-hundred-byte — split
        // at every byte boundary, including inside each length prefix.
        let payloads: Vec<Vec<u8>> = vec![
            b"hello".to_vec(),
            vec![0x12],
            (0..300u32).map(|i| i as u8).collect(),
        ];
        let mut wire = Vec::new();
        for p in &payloads {
            wire.extend_from_slice(&frame(p));
        }
        let mut src = OneByte(Cursor::new(wire));
        let mut rb = RecvBuf::new();
        let mut got: Vec<Vec<u8>> = Vec::new();
        loop {
            let n = rb.fill_from(&mut src).unwrap();
            while let Some(p) = rb.next_frame().unwrap() {
                got.push(p.to_vec());
            }
            if n == 0 {
                break;
            }
        }
        assert_eq!(got, payloads);
        assert!(!rb.mid_frame(), "stream ended at a frame boundary");
    }

    #[test]
    fn eof_mid_frame_is_detectable() {
        let mut wire = frame(b"complete");
        wire.extend_from_slice(&100u32.to_le_bytes());
        wire.extend_from_slice(b"truncated");
        let mut src = Cursor::new(wire);
        let mut rb = RecvBuf::new();
        while rb.fill_from(&mut src).unwrap() > 0 {}
        assert_eq!(rb.next_frame().unwrap(), Some(&b"complete"[..]));
        assert_eq!(rb.next_frame().unwrap(), None);
        assert!(rb.mid_frame(), "truncated frame must be observable");
    }

    #[test]
    fn oversized_length_prefix_is_invalid_data_before_buffering() {
        let mut rb = RecvBuf::new();
        let mut src = Cursor::new((MAX_FRAME_LEN + 1).to_le_bytes().to_vec());
        while rb.fill_from(&mut src).unwrap() > 0 {}
        let err = rb.next_frame().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn send_buf_frames_and_respects_frame_cap() {
        let mut sb = SendBuf::with_cap(1024);
        sb.frame_with(|b| b.extend_from_slice(b"abc")).unwrap();
        let err = sb
            .frame_with(|b| {
                let payload_at = b.len();
                b.resize(payload_at + MAX_FRAME_LEN as usize + 1, 0);
            })
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // The failed frame is rolled back; the good one is intact.
        let mut out = Vec::new();
        sb.flush_to(&mut out).unwrap();
        assert_eq!(out, frame(b"abc"));
        assert!(sb.is_empty());
    }

    #[test]
    fn send_buf_backpressure_rides_would_block_then_drains() {
        let (mut a, mut b) = UnixStream::pair().unwrap();
        a.set_nonblocking(true).unwrap();
        let mut sb = SendBuf::with_cap(8 * 1024);
        // Queue far more than a socketpair buffer holds.
        for _ in 0..64 {
            sb.frame_with(|buf| {
                let payload_at = buf.len();
                buf.resize(payload_at + 16 * 1024, 0x5A);
            })
            .unwrap();
        }
        assert!(sb.over_cap());
        let total = sb.pending();
        // First flush stops at WouldBlock with bytes still pending.
        sb.flush_to(&mut a).unwrap();
        assert!(!sb.is_empty(), "socketpair cannot hold {total} bytes");
        // Drain the peer until everything passes through.
        let mut received = 0usize;
        let mut chunk = vec![0u8; 32 * 1024];
        while received < total {
            received += b.read(&mut chunk).unwrap();
            sb.flush_to(&mut a).unwrap();
        }
        assert!(sb.is_empty());
        assert_eq!(received, total);
    }

    #[test]
    fn poller_reports_readiness_by_token() {
        let poller = Poller::new().unwrap();
        let (mut a, b) = UnixStream::pair().unwrap();
        b.set_nonblocking(true).unwrap();
        poller.register(b.as_raw_fd(), 7, true, false).unwrap();
        let mut events = Vec::new();
        assert_eq!(poller.wait(&mut events, 0).unwrap(), 0, "idle socket");
        a.write_all(b"x").unwrap();
        poller.wait(&mut events, 1000).unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.readable));
        poller.deregister(b.as_raw_fd()).unwrap();
    }

    #[test]
    fn waker_unblocks_wait_and_coalesces() {
        let poller = Poller::new().unwrap();
        let (waker, mut wake_rx) = wake_pair().unwrap();
        poller
            .register(wake_rx.raw_fd(), WAKE_TOKEN, true, false)
            .unwrap();
        // Many wakes, one byte: the coalescing flag short-circuits.
        for _ in 0..1000 {
            waker.wake();
        }
        let mut events = Vec::new();
        poller.wait(&mut events, 1000).unwrap();
        assert!(events.iter().any(|e| e.token == WAKE_TOKEN && e.readable));
        wake_rx.drain();
        events.clear();
        assert_eq!(poller.wait(&mut events, 0).unwrap(), 0, "drained");
        // Re-armed after drain: the next wake fires again.
        waker.wake();
        poller.wait(&mut events, 1000).unwrap();
        assert!(events.iter().any(|e| e.token == WAKE_TOKEN));
    }

    #[test]
    fn waker_survives_concurrent_wake_drain_races() {
        // Regression: drain() once cleared `pending` before emptying the
        // pipe, so a wake racing the read loop could have its byte consumed
        // while the flag stayed set — permanently disarming the waker. A
        // hammered wake/drain interleaving must always leave the waker able
        // to fire again.
        let poller = Poller::new().unwrap();
        let (waker, mut wake_rx) = wake_pair().unwrap();
        poller
            .register(wake_rx.raw_fd(), WAKE_TOKEN, true, false)
            .unwrap();
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    waker.wake();
                    std::hint::spin_loop();
                }
            });
            let mut events = Vec::new();
            for _ in 0..50_000 {
                events.clear();
                let _ = poller.wait(&mut events, 0);
                wake_rx.drain();
            }
            stop.store(true, Ordering::Relaxed);
        });
        // Quiesce: no concurrent wakers left, so one drain empties the pipe
        // and re-arms the flag.
        wake_rx.drain();
        let mut events = Vec::new();
        assert_eq!(poller.wait(&mut events, 0).unwrap(), 0, "fully drained");
        // The waker must still be armed: a fresh wake unblocks the poller.
        waker.wake();
        poller.wait(&mut events, 1000).unwrap();
        assert!(
            events.iter().any(|e| e.token == WAKE_TOKEN && e.readable),
            "wake after racing drains must still fire"
        );
    }

    #[test]
    fn nofile_limit_raises_soft_to_hard() {
        let raised = raise_nofile_limit().unwrap();
        assert!(raised > 0);
        // Idempotent: a second call reports the same limit.
        assert_eq!(raise_nofile_limit().unwrap(), raised);
        assert_eq!(current_nofile_limit(), raised);
    }

    #[test]
    fn fd_exhaustion_is_typed_on_errno() {
        assert!(is_fd_exhausted(&io::Error::from_raw_os_error(24)));
        assert!(is_fd_exhausted(&io::Error::from_raw_os_error(23)));
        assert!(!is_fd_exhausted(&io::Error::from_raw_os_error(111)));
    }
}
