//! The data-plane wire codec, plus the blocking socket halves that carry
//! it for the daemon.
//!
//! Every data-plane frame is `[u32 len][payload]` (`dwrs_core::framed`)
//! and every payload starts with one tag byte. Each frame kind has exactly
//! one encoder and one decoder, here, shared by the epoll engine
//! ([`crate::epoll`]), the daemon ([`crate::daemon`]) and the blocking
//! halves below — so the bytes on the wire are the same on every
//! substrate, and exactly the bytes the metrics meter:
//!
//! | direction | tag | payload | written by | read by |
//! |---|---|---|---|---|
//! | site→coord | `HELLO` | `u32` site id (first frame on a connection) | `write_hello` | `read_hello` |
//! | site→coord | `BATCH` | `u64` item count, then concatenated `FrameCodec` up-messages | `encode_batch` | `decode_up` |
//! | site→coord | `EOF` | empty — the site's stream is exhausted | `encode_up` | `decode_up` |
//! | site→coord | `FAULT` | UTF-8 diagnostic — the site hit a local failure | `encode_up` | `decode_up` |
//! | coord→site | `DOWN` | exactly one `FrameCodec` down-message | `encode_down` | `decode_down` |
//!
//! The `BATCH` item count is the sender's stream-progress watermark for the
//! flush window (items observed, not messages sent — the protocols are
//! message-sublinear); hierarchical aggregators key their root-sync cadence
//! off it.
//!
//! Shutdown is a half-close handshake: a site half-closes its write side
//! after `EOF`; the coordinator half-closes each down link once every site
//! reported `EOF`, which terminates the sites' drain loops.
//!
//! The blocking halves bridge one socket onto the `mpsc` channel a
//! daemon attach client consumes: its up sender writes frames, and a
//! down-reader thread drains `DOWN` frames eagerly, which keeps the
//! daemon's down writes (through the coordinator-side down sender) from
//! ever blocking (the deadlock-freedom invariant). Because that reader
//! holds a second handle to the socket, a site-side up sender dropped
//! without `close` shuts the socket down both ways, so the peer sees the
//! link end.

use std::io::{self, Read};
use std::net::{Shutdown, TcpStream};
use std::sync::mpsc;

use dwrs_core::framed::{decode_seq, encode_seq, FrameCodec, FramedReader, FramedWriter};

use crate::engine::RuntimeError;
use crate::transport::{BatchSender, DownSender, TransportError, UpFrame};

const TAG_HELLO: u8 = 0x10;
const TAG_BATCH: u8 = 0x11;
const TAG_EOF: u8 = 0x12;
const TAG_FAULT: u8 = 0x13;
const TAG_DOWN: u8 = 0x21;

// ---------------------------------------------------------------- codec

/// Writes the `HELLO` frame that opens every site connection, declaring
/// the connecting site's id.
pub(crate) fn write_hello(stream: &TcpStream, site: usize) -> io::Result<()> {
    FramedWriter::new(stream).write_frame_with(|buf| {
        buf.push(TAG_HELLO);
        buf.extend_from_slice(&(site as u32).to_le_bytes());
    })
}

/// Reads and validates the `HELLO` frame that opens every site connection
/// of a `k`-site deployment (the epoll engine's accept loop calls it while
/// the socket is still in blocking mode): the declared id must be below
/// `k` and not `taken` by an earlier connection.
pub(crate) fn read_hello(
    stream: &TcpStream,
    k: usize,
    taken: impl Fn(usize) -> bool,
) -> Result<usize, RuntimeError> {
    let mut len_bytes = [0u8; 4];
    let mut take = stream;
    take.read_exact(&mut len_bytes)
        .map_err(|e| RuntimeError::Transport(format!("reading HELLO length: {e}")))?;
    let len = u32::from_le_bytes(len_bytes);
    if len != 5 {
        return Err(RuntimeError::Transport(format!(
            "HELLO frame must be 5 bytes, got {len}"
        )));
    }
    let mut payload = [0u8; 5];
    take.read_exact(&mut payload)
        .map_err(|e| RuntimeError::Transport(format!("reading HELLO payload: {e}")))?;
    if payload[0] != TAG_HELLO {
        return Err(RuntimeError::Transport(format!(
            "expected HELLO tag, got {:#x}",
            payload[0]
        )));
    }
    let site = u32::from_le_bytes(payload[1..5].try_into().expect("4 bytes")) as usize;
    if site >= k {
        return Err(RuntimeError::Transport(format!(
            "HELLO for site {site} but k = {k}"
        )));
    }
    if taken(site) {
        return Err(RuntimeError::Transport(format!(
            "duplicate HELLO for site {site}"
        )));
    }
    Ok(site)
}

/// Appends a `BATCH` payload: the flush window's item count, then the
/// messages back to back. Encodes from the borrow, so the caller keeps its
/// batch allocation.
pub(crate) fn encode_batch<U: FrameCodec>(msgs: &[U], items: u64, buf: &mut Vec<u8>) {
    buf.push(TAG_BATCH);
    buf.extend_from_slice(&items.to_le_bytes());
    encode_seq(msgs, buf);
}

/// Appends one up-frame payload: `BATCH`, `EOF`, or `FAULT` with its
/// diagnostic.
pub(crate) fn encode_up<U: FrameCodec>(frame: &UpFrame<U>, buf: &mut Vec<u8>) {
    match frame {
        UpFrame::Batch { msgs, items } => encode_batch(msgs, *items, buf),
        UpFrame::Eof => buf.push(TAG_EOF),
        UpFrame::Fault(msg) => {
            buf.push(TAG_FAULT);
            buf.extend_from_slice(msg.as_bytes());
        }
    }
}

/// Decodes one up-frame payload. Total: a malformed batch, an unknown tag
/// or an empty frame decodes to an [`UpFrame::Fault`] carrying the
/// diagnostic, so every reader ends a broken link the same way.
pub(crate) fn decode_up<U: FrameCodec>(payload: &[u8]) -> UpFrame<U> {
    match payload.split_first() {
        Some((&TAG_BATCH, body)) if body.len() >= 8 => {
            let items = u64::from_le_bytes(body[..8].try_into().expect("8 bytes checked"));
            match decode_seq::<U>(&body[8..]) {
                Ok(msgs) => UpFrame::Batch { msgs, items },
                Err(e) => UpFrame::Fault(format!("bad batch payload: {e}")),
            }
        }
        Some((&TAG_BATCH, _)) => {
            UpFrame::Fault("batch frame shorter than its item-count header".into())
        }
        Some((&TAG_EOF, _)) => UpFrame::Eof,
        Some((&TAG_FAULT, body)) => UpFrame::Fault(String::from_utf8_lossy(body).into_owned()),
        Some((&tag, _)) => UpFrame::Fault(format!("unexpected frame tag {tag:#x}")),
        None => UpFrame::Fault("empty frame".into()),
    }
}

/// Appends a `DOWN` payload: exactly one message.
pub(crate) fn encode_down<D: FrameCodec>(msg: &D, buf: &mut Vec<u8>) {
    buf.push(TAG_DOWN);
    msg.encode(buf);
}

/// Decodes one `DOWN` payload, which must hold exactly one message.
pub(crate) fn decode_down<D: FrameCodec>(payload: &[u8]) -> Result<D, &'static str> {
    match payload.split_first() {
        Some((&TAG_DOWN, body)) => match D::decode(body) {
            Ok((msg, used)) if used == body.len() => Ok(msg),
            _ => Err("malformed down frame"),
        },
        _ => Err("unexpected frame on down link"),
    }
}

// ----------------------------------------------------------- site side

/// Conservative per-message wire-size bound used to pre-size batch frames:
/// every protocol message is O(1) machine words (the largest SWOR up frame
/// is 25 bytes), so `batch_max` messages fit this many bytes.
const MSG_SIZE_HINT: usize = 32;

/// Site-side up sender: encodes batches onto the socket. Frames are built
/// in the writer's reusable scratch (pre-sized from the engine's
/// `batch_max` via [`BatchSender::reserve_hint`]) and shipped with a
/// single `write_all` — no allocation, no copy, one syscall per flush.
struct TcpBatchSender<U> {
    writer: FramedWriter<TcpStream>,
    /// `close` ran: the link ended with a clean half-close.
    closed: bool,
    _marker: std::marker::PhantomData<fn(U)>,
}

impl<U> Drop for TcpBatchSender<U> {
    /// The down reader holds a second handle to this socket, so dropping
    /// only this one would leave the connection open and the peer waiting
    /// for frames that never come. A sender dropped without `close` (an
    /// error return, a panic's unwinding) shuts the socket down both ways,
    /// as [`BatchSender::abort`] does.
    fn drop(&mut self) {
        if !self.closed {
            let _ = self.writer.get_ref().shutdown(Shutdown::Both);
        }
    }
}

/// Builds the site-side up sender over an already-connected socket
/// (shared with the daemon's attach client, whose handshake is a control
/// frame instead of `HELLO`).
pub(crate) fn tcp_batch_sender<U: FrameCodec + Send + 'static>(
    stream: TcpStream,
) -> Box<dyn BatchSender<U>> {
    Box::new(TcpBatchSender {
        writer: FramedWriter::new(stream),
        closed: false,
        _marker: std::marker::PhantomData,
    })
}

impl<U: FrameCodec + Send> BatchSender<U> for TcpBatchSender<U> {
    fn send(&mut self, frame: UpFrame<U>) -> Result<(), TransportError> {
        self.writer
            .write_frame_with(|buf| encode_up(&frame, buf))
            .map_err(TransportError::Io)
    }

    fn send_batch(&mut self, batch: &mut Vec<U>, items: u64) -> Result<(), TransportError> {
        self.writer
            .write_frame_with(|buf| encode_batch(batch, items, buf))
            .map_err(TransportError::Io)?;
        batch.clear();
        Ok(())
    }

    fn reserve_hint(&mut self, batch_max: usize) {
        self.writer
            .reserve_frame(9 + MSG_SIZE_HINT * batch_max.max(1));
    }

    fn abort(&mut self) {
        let _ = self.writer.get_ref().shutdown(Shutdown::Both);
    }

    fn close(&mut self) {
        self.closed = true;
        let _ = self.writer.flush();
        let _ = self.writer.get_ref().shutdown(Shutdown::Write);
    }
}

/// Site-side reader: decodes `DOWN` frames into the in-process channel
/// until the coordinator half-closes. Runs on its own thread so the socket
/// is always drained (downs never back up into the coordinator). On any
/// exit — including a malformed frame — the socket is fully shut down so a
/// peer blocked writing to it fails fast instead of hanging on a full
/// kernel buffer.
pub(crate) fn down_reader<D: FrameCodec>(stream: TcpStream, tx: mpsc::Sender<D>) {
    let shutdown_handle = stream.try_clone().ok();
    let mut reader = FramedReader::new(stream);
    loop {
        let stop = match reader.read_blob() {
            Ok(Some(payload)) => match decode_down::<D>(payload) {
                Ok(msg) => tx.send(msg).is_err(),
                Err(_) => true, // malformed: stop draining, the site will finish
            },
            Ok(None) | Err(_) => true,
        };
        if stop {
            if let Some(s) = shutdown_handle.as_ref() {
                let _ = s.shutdown(Shutdown::Both);
            }
            return;
        }
    }
}

// ---------------------------------------------------- coordinator side

/// Coordinator-side down sender for one site connection. Encodes each
/// message in the writer's reusable scratch: no allocation per send, one
/// syscall per message.
struct TcpDownSender<D> {
    writer: FramedWriter<TcpStream>,
    _marker: std::marker::PhantomData<fn(D)>,
}

/// Builds the coordinator-side down sender for one site connection
/// (shared with the daemon, which registers per-slot senders as sites
/// attach instead of accepting a fixed `k` up front).
pub(crate) fn tcp_down_sender<D: FrameCodec + Send + 'static>(
    stream: TcpStream,
) -> Box<dyn DownSender<D>> {
    Box::new(TcpDownSender {
        writer: FramedWriter::new(stream),
        _marker: std::marker::PhantomData,
    })
}

impl<D: FrameCodec + Send> DownSender<D> for TcpDownSender<D> {
    fn send(&mut self, msg: &D) -> Result<(), TransportError> {
        self.writer
            .write_frame_with(|buf| encode_down(msg, buf))
            .map_err(TransportError::Io)
    }

    fn close(&mut self) {
        let _ = self.writer.flush();
        let _ = self.writer.get_ref().shutdown(Shutdown::Write);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dwrs_core::swor::UpMsg;
    use dwrs_core::Item;
    use std::io::Write;
    use std::net::TcpListener;

    /// A connected loopback pair: the site's end and the coordinator's.
    fn loopback() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind((std::net::Ipv4Addr::LOCALHOST, 0)).unwrap();
        let site = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (coord, _) = listener.accept().unwrap();
        (site, coord)
    }

    #[test]
    fn hello_rejects_out_of_range_and_duplicate_sites() {
        // Reads the HELLO of `site` as the `k = 2` accept loop would,
        // with `taken` reporting every site as already connected or none.
        let hello = |site, taken: bool| {
            let (client, server) = loopback();
            write_hello(&client, site).unwrap();
            read_hello(&server, 2, |_| taken)
        };
        assert_eq!(hello(1, false).unwrap(), 1);
        for (site, taken, says) in [(7, false, "site 7 but k = 2"), (1, true, "duplicate HELLO")] {
            let err = hello(site, taken).unwrap_err();
            assert!(
                matches!(err, RuntimeError::Transport(ref m) if m.contains(says)),
                "got {err:?}"
            );
        }
    }

    #[test]
    fn site_sent_fault_round_trips_with_message() {
        // A Fault shipped through the site's BatchSender must arrive as a
        // Fault with its diagnostic intact — not be silently degraded to a
        // clean Eof — and the batch before it must arrive whole.
        let (site, coord) = loopback();
        write_hello(&site, 0).unwrap();
        let mut up = tcp_batch_sender::<UpMsg>(site);
        let msgs = vec![
            UpMsg::Early {
                item: Item::new(3, 2.5),
            },
            UpMsg::Regular {
                item: Item::unit(4),
                key: 7.0,
            },
        ];
        up.send_batch(&mut msgs.clone(), 9).unwrap();
        up.send(UpFrame::Fault("site disk on fire".into())).unwrap();
        up.close();
        assert_eq!(read_hello(&coord, 1, |_| false).unwrap(), 0);
        let mut reader = FramedReader::new(coord);
        let mut frames = Vec::new();
        while let Some(payload) = reader.read_blob().unwrap() {
            frames.push(decode_up::<UpMsg>(payload));
        }
        assert_eq!(
            frames,
            [
                UpFrame::Batch { msgs, items: 9 },
                UpFrame::Fault("site disk on fire".into())
            ]
        );
    }

    #[test]
    fn garbage_connection_surfaces_as_fault() {
        // Valid HELLO, then a frame with an unknown tag.
        let (mut site, coord) = loopback();
        write_hello(&site, 0).unwrap();
        site.write_all(&3u32.to_le_bytes()).unwrap();
        site.write_all(&[0xEE, 0xFF, 0x00]).unwrap();
        drop(site);
        assert_eq!(read_hello(&coord, 1, |_| false).unwrap(), 0);
        let mut reader = FramedReader::new(coord);
        let payload = reader.read_blob().unwrap().expect("one frame");
        let frame = decode_up::<UpMsg>(payload);
        assert!(
            matches!(frame, UpFrame::Fault(ref m) if m.contains("unexpected frame tag 0xee")),
            "got {frame:?}"
        );
        // The other malformed payloads decode to faults too.
        for (payload, says) in [
            (
                &[TAG_BATCH, 1, 2, 3][..],
                "shorter than its item-count header",
            ),
            (&[][..], "empty frame"),
        ] {
            let frame = decode_up::<UpMsg>(payload);
            assert!(
                matches!(frame, UpFrame::Fault(ref m) if m.contains(says)),
                "{payload:?}: got {frame:?}"
            );
        }
    }
}
