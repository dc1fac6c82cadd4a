//! Control-protocol frames for the long-lived sampling daemon.
//!
//! The daemon (`dwrs-runtime::daemon`) hosts many concurrent *named
//! streams* and answers live queries while they run. Clients speak a small
//! request/response protocol over the same `[u32 LE length][payload]`
//! framing as the data plane ([`crate::framed`]): every control payload is
//! one [`CtrlMsg`] (client → daemon) or [`CtrlResp`] (daemon → client).
//!
//! Layouts follow the `swor::wire` conventions exactly: a one-byte tag,
//! little-endian fixed-width integers, `f64` as IEEE-754 bits, and strings
//! as a `u16` length followed by UTF-8 bytes. Decoding is *total* — any
//! byte string either decodes or returns a [`WireError`], never panics —
//! and validates counts against the available bytes **before** allocating
//! (the same discipline as `swor::wire::decode_sync`). The framing layer's
//! `MAX_FRAME_LEN` guard applies unchanged.
//!
//! The byte layout of every frame is documented operator-facing in
//! `docs/DAEMON.md`; a doc-sync test asserts the two stay aligned.

use crate::framed::FrameCodec;
use crate::item::{Item, Keyed};
use crate::swor::wire::{get_f64, get_u64, put_f64, put_u64, WireError};

/// Tag byte of [`CtrlMsg::Create`].
pub const TAG_CREATE: u8 = 0x40;
/// Tag byte of [`CtrlMsg::Attach`].
pub const TAG_ATTACH: u8 = 0x41;
/// Tag byte of [`CtrlMsg::Query`].
pub const TAG_QUERY: u8 = 0x42;
/// Tag byte of [`CtrlMsg::Drain`].
pub const TAG_DRAIN: u8 = 0x43;
/// Tag byte of [`CtrlMsg::Shutdown`].
pub const TAG_SHUTDOWN: u8 = 0x44;
/// Tag byte of [`CtrlMsg::Metrics`].
pub const TAG_METRICS: u8 = 0x45;
/// Tag byte of [`CtrlResp::Ok`].
pub const TAG_OK: u8 = 0x50;
/// Tag byte of [`CtrlResp::Err`].
pub const TAG_ERR: u8 = 0x51;
/// Tag byte of [`CtrlResp::Attached`].
pub const TAG_ATTACHED: u8 = 0x52;
/// Tag byte of [`CtrlResp::Answer`].
pub const TAG_ANSWER: u8 = 0x53;
/// Tag byte of [`CtrlResp::Metrics`].
pub const TAG_METRICS_REPORT: u8 = 0x54;

/// Bytes per encoded sample entry in a [`LiveSnapshot`]: `u64` id,
/// `f64` weight, `f64` key.
pub const SNAPSHOT_ENTRY_BYTES: usize = 24;

/// The live query kinds a running stream can answer mid-run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LiveQueryKind {
    /// The coordinator's current weighted sample (query set).
    CurrentSample,
    /// The L1 estimate `W̃ = s·u/ℓ` at this instant.
    L1Now,
    /// The residual-heavy-hitter candidate set so far (top `2/ε` sample
    /// items by weight).
    RhhSoFar,
    /// The sample filtered to the trailing window of arrivals.
    WindowNow,
    /// Per-tier message/byte accounting only (no sample entries).
    Stats,
}

impl LiveQueryKind {
    /// The wire discriminant byte.
    pub fn as_u8(self) -> u8 {
        match self {
            LiveQueryKind::CurrentSample => 0,
            LiveQueryKind::L1Now => 1,
            LiveQueryKind::RhhSoFar => 2,
            LiveQueryKind::WindowNow => 3,
            LiveQueryKind::Stats => 4,
        }
    }

    /// Decodes a wire discriminant byte.
    pub fn from_u8(b: u8) -> Option<Self> {
        match b {
            0 => Some(LiveQueryKind::CurrentSample),
            1 => Some(LiveQueryKind::L1Now),
            2 => Some(LiveQueryKind::RhhSoFar),
            3 => Some(LiveQueryKind::WindowNow),
            4 => Some(LiveQueryKind::Stats),
            _ => None,
        }
    }

    /// The operator-facing name (`dwrs query --kind <name>`).
    pub fn name(self) -> &'static str {
        match self {
            LiveQueryKind::CurrentSample => "current-sample",
            LiveQueryKind::L1Now => "l1-now",
            LiveQueryKind::RhhSoFar => "rhh-so-far",
            LiveQueryKind::WindowNow => "window-now",
            LiveQueryKind::Stats => "stats",
        }
    }

    /// Parses an operator-facing name (aliases: `sample`, `l1`, `rhh`,
    /// `window`).
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "current-sample" | "sample" => Some(LiveQueryKind::CurrentSample),
            "l1-now" | "l1" => Some(LiveQueryKind::L1Now),
            "rhh-so-far" | "rhh" => Some(LiveQueryKind::RhhSoFar),
            "window-now" | "window" => Some(LiveQueryKind::WindowNow),
            "stats" => Some(LiveQueryKind::Stats),
            _ => None,
        }
    }

    /// All kinds, in wire-discriminant order.
    pub fn all() -> [LiveQueryKind; 5] {
        [
            LiveQueryKind::CurrentSample,
            LiveQueryKind::L1Now,
            LiveQueryKind::RhhSoFar,
            LiveQueryKind::WindowNow,
            LiveQueryKind::Stats,
        ]
    }
}

/// A client → daemon control request.
#[derive(Clone, Debug, PartialEq)]
pub enum CtrlMsg {
    /// Creates stream `stream` with `k` site slots, base sample size `s`,
    /// and application query `query` (a `Query::parse` spec such as
    /// `"swor"` or `"l1:0.2,0.25"`). Creating an existing stream is a
    /// no-op acknowledged with [`CtrlResp::Ok`]; the original
    /// configuration wins.
    Create {
        /// Stream name (non-empty, at most `u16::MAX` UTF-8 bytes).
        stream: String,
        /// Number of site slots `k` (≥ 1).
        k: u32,
        /// Base sample size `s` (≥ 1); the query may derive a larger
        /// effective size.
        s: u32,
        /// Application query spec.
        query: String,
    },
    /// Attaches this connection as site `site` of stream `stream`; the
    /// connection then switches to the data-plane frames (`BATCH` / `EOF`
    /// up, `DOWN` down). Reattaching a previously detached slot resumes
    /// it.
    Attach {
        /// Stream name.
        stream: String,
        /// Site slot in `0..k`.
        site: u32,
    },
    /// Answers a live query against the stream's current state.
    Query {
        /// Stream name.
        stream: String,
        /// Which live answer to extract.
        kind: LiveQueryKind,
        /// Kind-specific argument: the window length in arrivals for
        /// [`LiveQueryKind::WindowNow`] (0 = the stream's own window);
        /// ignored otherwise.
        arg: u64,
    },
    /// Waits until every attached site has sent Eof or detached, then
    /// returns the final snapshot and removes the stream.
    Drain {
        /// Stream name.
        stream: String,
    },
    /// Drains every stream and stops the daemon.
    Shutdown,
    /// Scrapes the daemon's telemetry: its registry samples plus one
    /// [`StreamMetrics`] per live stream, each read between two of the
    /// stream's commands (the same consistent cut live queries get).
    Metrics {
        /// Most-recent trace events to include per ring (0 = counters and
        /// gauges only, no event history).
        events: u32,
    },
}

impl CtrlMsg {
    /// The tag byte this request travels under on the wire.
    pub fn tag(&self) -> u8 {
        match self {
            CtrlMsg::Create { .. } => TAG_CREATE,
            CtrlMsg::Attach { .. } => TAG_ATTACH,
            CtrlMsg::Query { .. } => TAG_QUERY,
            CtrlMsg::Drain { .. } => TAG_DRAIN,
            CtrlMsg::Shutdown => TAG_SHUTDOWN,
            CtrlMsg::Metrics { .. } => TAG_METRICS,
        }
    }
}

/// A daemon → client control response.
#[derive(Clone, Debug, PartialEq)]
pub enum CtrlResp {
    /// Generic acknowledgement.
    Ok {
        /// Human-readable detail (e.g. `"created"` / `"exists"`).
        info: String,
    },
    /// The request failed; the stream (if any) is unaffected.
    Err {
        /// Human-readable reason.
        msg: String,
    },
    /// An [`CtrlMsg::Attach`] was accepted; the connection is now the
    /// slot's data link.
    Attached {
        /// The confirmed site slot.
        site: u32,
        /// Whether the slot had fed items before (reconnect).
        resumed: bool,
        /// Items the slot had contributed before this attach.
        items: u64,
    },
    /// A live answer ([`CtrlMsg::Query`] or [`CtrlMsg::Drain`]).
    Answer {
        /// The stream's state between two of its processor's commands.
        snapshot: LiveSnapshot,
    },
    /// A telemetry scrape ([`CtrlMsg::Metrics`]).
    Metrics {
        /// The daemon-wide report at the instant of the scrape.
        report: MetricsReport,
    },
}

/// A stream's state at one instant, as carried by [`CtrlResp::Answer`].
///
/// This is the incremental form of a `RunReport`: items observed so far,
/// the current epoch/threshold, the kind-specific estimate, and the
/// per-tier message/byte accounting at that instant. Because the threaded
/// engines run in the delayed-delivery regime, a snapshot reflects the
/// frames the coordinator has *processed*, which may trail what sites
/// have sent.
#[derive(Clone, Debug, PartialEq)]
pub struct LiveSnapshot {
    /// Which live answer the `sample`/`estimate` fields carry.
    pub kind: LiveQueryKind,
    /// Items observed across all site slots (sum of batch watermarks).
    pub items: u64,
    /// The coordinator's current epoch `j` (`None` before the first
    /// epoch broadcast).
    pub epoch: Option<i64>,
    /// The current threshold statistic `u` (the `s`-th largest released
    /// key; 0 until the sample fills).
    pub u: f64,
    /// Kind-specific estimate: `W̃ = s·u/ℓ` for `l1-now`, the retained
    /// weight sum for the sample-carrying kinds, 0 for `stats`.
    pub estimate: f64,
    /// The duplication factor `ℓ` in force (1 unless the stream runs the
    /// L1 query).
    pub ell: u64,
    /// Site slots currently attached.
    pub sites_attached: u32,
    /// Site slots that have completed with Eof.
    pub sites_eof: u32,
    /// Site → coordinator messages processed.
    pub up_msgs: u64,
    /// Coordinator → site messages sent (broadcasts count `k`).
    pub down_msgs: u64,
    /// Upstream bytes (exact wire sizes).
    pub up_bytes: u64,
    /// Downstream bytes (broadcast bytes count `k`-fold).
    pub down_bytes: u64,
    /// Broadcast events (each costing `k` messages).
    pub broadcast_events: u64,
    /// Regular messages whose key was at or below the threshold the
    /// coordinator had already broadcast (`CoordStats::stale_regular`).
    pub stale_regular: u64,
    /// Early messages for a level the coordinator had already saturated,
    /// whose key was at or below that threshold too
    /// (`CoordStats::stale_early`).
    pub stale_early: u64,
    /// The kind-specific entry set: the current sample, the heavy-hitter
    /// candidates (heaviest first), or the window survivors; empty for
    /// `stats`.
    pub sample: Vec<Keyed>,
}

impl LiveSnapshot {
    /// Serializes the snapshot as a single-line JSON object. Shared by
    /// `dwrs query --format json` and batch-run snapshots so every path
    /// emits the identical shape.
    pub fn to_json(&self, stream: &str) -> String {
        let epoch = match self.epoch {
            Some(e) => e.to_string(),
            None => "null".into(),
        };
        format!(
            concat!(
                "{{\"stream\":\"{}\",\"kind\":\"{}\",\"items\":{},",
                "\"epoch\":{},\"u\":{},\"estimate\":{},\"ell\":{},",
                "\"sites_attached\":{},\"sites_eof\":{},",
                "\"up_messages\":{},\"down_messages\":{},",
                "\"up_bytes\":{},\"down_bytes\":{},\"broadcast_events\":{},",
                "\"stale_regular\":{},\"stale_early\":{},\"sample_size\":{}}}"
            ),
            json_escape(stream),
            self.kind.name(),
            self.items,
            epoch,
            json_f64(self.u),
            json_f64(self.estimate),
            self.ell,
            self.sites_attached,
            self.sites_eof,
            self.up_msgs,
            self.down_msgs,
            self.up_bytes,
            self.down_bytes,
            self.broadcast_events,
            self.stale_regular,
            self.stale_early,
            self.sample.len(),
        )
    }
}

/// What a metric's single `value` means in a [`MetricSample`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically non-decreasing count.
    Counter,
    /// Instantaneous level that can move both ways.
    Gauge,
    /// ε-approximate distribution; `value` is the observation count and
    /// the percentiles ride in the attached [`HistSummary`].
    Histogram,
}

impl MetricKind {
    /// The wire discriminant byte.
    pub fn as_u8(self) -> u8 {
        match self {
            MetricKind::Counter => 0,
            MetricKind::Gauge => 1,
            MetricKind::Histogram => 2,
        }
    }

    /// Decodes a wire discriminant byte.
    pub fn from_u8(b: u8) -> Option<Self> {
        match b {
            0 => Some(MetricKind::Counter),
            1 => Some(MetricKind::Gauge),
            2 => Some(MetricKind::Histogram),
            _ => None,
        }
    }

    /// The Prometheus exposition `# TYPE` name (histograms render as
    /// `summary` because the sketch reports quantiles, not buckets).
    pub fn prom_type(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "summary",
        }
    }
}

/// Sketch-backed percentile digest of one histogram metric.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HistSummary {
    /// Observations folded into the sketch.
    pub count: u64,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Exact maximum observation.
    pub max: f64,
}

/// One named metric in a scrape: a counter/gauge value, or a histogram's
/// count plus its [`HistSummary`] percentiles.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricSample {
    /// Metric name (`dwrs_..._total` style, stable across releases).
    pub name: String,
    /// How to read `value`.
    pub kind: MetricKind,
    /// Counter/gauge value, or the histogram observation count.
    pub value: f64,
    /// Percentiles for histogram metrics; `None` for counters/gauges or
    /// empty histograms.
    pub hist: Option<HistSummary>,
}

/// One structured event from a fixed-capacity trace ring.
///
/// Events carry two untyped payload words whose meaning depends on the
/// code (documented per event in `docs/DAEMON.md`); codes map to names via
/// the `dwrs-telemetry` trace catalog.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Per-ring sequence number (gaps mean the ring wrapped).
    pub seq: u64,
    /// Nanoseconds since the owning process's telemetry epoch
    /// (monotonic; comparable within one report, not across daemons).
    pub nanos: u64,
    /// Event code (see the trace catalog).
    pub code: u8,
    /// First payload word (e.g. a site slot).
    pub a: u64,
    /// Second payload word (e.g. an item count).
    pub b: u64,
}

/// Encoded size of one [`TraceEvent`]: `u64` seq + `u64` nanos + code byte
/// + two `u64` payload words.
pub const TRACE_EVENT_BYTES: usize = 8 + 8 + 1 + 8 + 8;

/// Per-stream telemetry read under the stream's lock, between two of its
/// processor's commands, so every number reflects one consistent instant
/// of that stream.
#[derive(Clone, Debug, PartialEq)]
pub struct StreamMetrics {
    /// Stream name.
    pub stream: String,
    /// The application query spec the stream runs.
    pub query: String,
    /// Items observed across all site slots.
    pub items: u64,
    /// Site slots currently attached.
    pub sites_attached: u32,
    /// Site slots completed with Eof.
    pub sites_eof: u32,
    /// Commands waiting in the stream's queue when the scrape ran.
    pub queue_depth: u32,
    /// The queue's bound.
    pub queue_capacity: u32,
    /// Live queries answered so far (drains are not counted).
    pub queries: u64,
    /// Stale regular messages the stream's coordinator has counted
    /// (`CoordStats::stale_regular`).
    pub stale_regular: u64,
    /// Stale early messages the stream's coordinator has counted
    /// (`CoordStats::stale_early`).
    pub stale_early: u64,
    /// Per-query service latency percentiles in nanoseconds, measured on
    /// the connection thread from taking the stream's lock to the built
    /// answer.
    pub latency: Option<HistSummary>,
    /// Most recent trace-ring events for this stream, oldest first.
    pub events: Vec<TraceEvent>,
}

/// A whole-daemon telemetry scrape: registry samples, daemon-level trace
/// events, and one [`StreamMetrics`] per live stream.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricsReport {
    /// Monotonic nanoseconds since the daemon's telemetry epoch at the
    /// instant the report was assembled. Consecutive scrapes subtract
    /// these to turn item counters into rates.
    pub now_nanos: u64,
    /// Nanoseconds the daemon has been up.
    pub uptime_nanos: u64,
    /// Streams created over the daemon's lifetime (a counter; `streams`
    /// holds only the live ones).
    pub streams_created: u64,
    /// The daemon's registry contents, sorted by name.
    pub samples: Vec<MetricSample>,
    /// Daemon-level trace events (accepts, ctrl errors, shutdown),
    /// oldest first.
    pub events: Vec<TraceEvent>,
    /// Per-stream sections, sorted by stream name.
    pub streams: Vec<StreamMetrics>,
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

// ---------------------------------------------------------------------------
// Encoding helpers: `swor::wire`'s `u64`/`f64` codecs, plus the two field
// kinds only the control plane has.

fn put_u32(buf: &mut Vec<u8>, x: u32) {
    buf.extend_from_slice(&x.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    debug_assert!(s.len() <= u16::MAX as usize);
    buf.extend_from_slice(&(s.len() as u16).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

fn get_u32(buf: &[u8], at: usize) -> Result<u32, WireError> {
    let bytes = buf
        .get(at..at + 4)
        .ok_or(WireError::Truncated)?
        .try_into()
        .expect("slice length checked");
    Ok(u32::from_le_bytes(bytes))
}

/// Reads a `u16`-length-prefixed UTF-8 string at `at`, returning the
/// string and the offset just past it.
fn get_str(buf: &[u8], at: usize) -> Result<(String, usize), WireError> {
    let len_bytes = buf
        .get(at..at + 2)
        .ok_or(WireError::Truncated)?
        .try_into()
        .expect("slice length checked");
    let len = u16::from_le_bytes(len_bytes) as usize;
    let bytes = buf.get(at + 2..at + 2 + len).ok_or(WireError::Truncated)?;
    let s = std::str::from_utf8(bytes).map_err(|_| WireError::BadField)?;
    Ok((s.to_string(), at + 2 + len))
}

fn check_finite_positive(x: f64) -> Result<f64, WireError> {
    if x.is_finite() && x > 0.0 {
        Ok(x)
    } else {
        Err(WireError::BadField)
    }
}

// ---------------------------------------------------------------------------
// CtrlMsg codec.

impl FrameCodec for CtrlMsg {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(self.tag());
        match self {
            CtrlMsg::Create {
                stream,
                k,
                s,
                query,
            } => {
                put_str(buf, stream);
                put_u32(buf, *k);
                put_u32(buf, *s);
                put_str(buf, query);
            }
            CtrlMsg::Attach { stream, site } => {
                put_str(buf, stream);
                put_u32(buf, *site);
            }
            CtrlMsg::Query { stream, kind, arg } => {
                put_str(buf, stream);
                buf.push(kind.as_u8());
                put_u64(buf, *arg);
            }
            CtrlMsg::Drain { stream } => put_str(buf, stream),
            CtrlMsg::Shutdown => {}
            CtrlMsg::Metrics { events } => put_u32(buf, *events),
        }
    }

    fn decode(buf: &[u8]) -> Result<(Self, usize), WireError> {
        let tag = *buf.first().ok_or(WireError::Truncated)?;
        match tag {
            TAG_CREATE => {
                let (stream, at) = get_str(buf, 1)?;
                let k = get_u32(buf, at)?;
                let s = get_u32(buf, at + 4)?;
                let (query, end) = get_str(buf, at + 8)?;
                if stream.is_empty() || k == 0 || s == 0 {
                    return Err(WireError::BadField);
                }
                Ok((
                    CtrlMsg::Create {
                        stream,
                        k,
                        s,
                        query,
                    },
                    end,
                ))
            }
            TAG_ATTACH => {
                let (stream, at) = get_str(buf, 1)?;
                let site = get_u32(buf, at)?;
                if stream.is_empty() {
                    return Err(WireError::BadField);
                }
                Ok((CtrlMsg::Attach { stream, site }, at + 4))
            }
            TAG_QUERY => {
                let (stream, at) = get_str(buf, 1)?;
                let kind_byte = *buf.get(at).ok_or(WireError::Truncated)?;
                let kind = LiveQueryKind::from_u8(kind_byte).ok_or(WireError::BadField)?;
                let arg = get_u64(buf, at + 1)?;
                if stream.is_empty() {
                    return Err(WireError::BadField);
                }
                Ok((CtrlMsg::Query { stream, kind, arg }, at + 9))
            }
            TAG_DRAIN => {
                let (stream, end) = get_str(buf, 1)?;
                if stream.is_empty() {
                    return Err(WireError::BadField);
                }
                Ok((CtrlMsg::Drain { stream }, end))
            }
            TAG_SHUTDOWN => Ok((CtrlMsg::Shutdown, 1)),
            TAG_METRICS => {
                let events = get_u32(buf, 1)?;
                Ok((CtrlMsg::Metrics { events }, 5))
            }
            other => Err(WireError::BadTag(other)),
        }
    }
}

// ---------------------------------------------------------------------------
// CtrlResp codec.

/// Fixed bytes of an encoded snapshot before the variable parts: tag-free
/// header of kind, items, epoch flag, u, estimate, ell, attached, eof, the
/// five accounting counters and the two stale counts, then the `u32` entry
/// count. The optional 8-byte epoch value and the entries follow.
const SNAPSHOT_HEADER_BYTES: usize = 1 + 8 + 1 + 8 + 8 + 8 + 4 + 4 + 7 * 8 + 4;

fn encode_snapshot(snap: &LiveSnapshot, buf: &mut Vec<u8>) {
    buf.push(snap.kind.as_u8());
    put_u64(buf, snap.items);
    match snap.epoch {
        Some(e) => {
            buf.push(1);
            put_u64(buf, e as u64);
        }
        None => buf.push(0),
    }
    put_f64(buf, snap.u);
    put_f64(buf, snap.estimate);
    put_u64(buf, snap.ell);
    put_u32(buf, snap.sites_attached);
    put_u32(buf, snap.sites_eof);
    put_u64(buf, snap.up_msgs);
    put_u64(buf, snap.down_msgs);
    put_u64(buf, snap.up_bytes);
    put_u64(buf, snap.down_bytes);
    put_u64(buf, snap.broadcast_events);
    put_u64(buf, snap.stale_regular);
    put_u64(buf, snap.stale_early);
    debug_assert!(snap.sample.len() <= u32::MAX as usize);
    put_u32(buf, snap.sample.len() as u32);
    for kd in &snap.sample {
        put_u64(buf, kd.item.id);
        put_f64(buf, kd.item.weight);
        put_f64(buf, kd.key);
    }
}

fn decode_snapshot(buf: &[u8], at: usize) -> Result<(LiveSnapshot, usize), WireError> {
    let kind_byte = *buf.get(at).ok_or(WireError::Truncated)?;
    let kind = LiveQueryKind::from_u8(kind_byte).ok_or(WireError::BadField)?;
    let items = get_u64(buf, at + 1)?;
    let epoch_flag = *buf.get(at + 9).ok_or(WireError::Truncated)?;
    let (epoch, mut off) = match epoch_flag {
        0 => (None, at + 10),
        1 => (Some(get_u64(buf, at + 10)? as i64), at + 18),
        _ => return Err(WireError::BadField),
    };
    let u = get_f64(buf, off)?;
    let estimate = get_f64(buf, off + 8)?;
    let ell = get_u64(buf, off + 16)?;
    let sites_attached = get_u32(buf, off + 24)?;
    let sites_eof = get_u32(buf, off + 28)?;
    let up_msgs = get_u64(buf, off + 32)?;
    let down_msgs = get_u64(buf, off + 40)?;
    let up_bytes = get_u64(buf, off + 48)?;
    let down_bytes = get_u64(buf, off + 56)?;
    let broadcast_events = get_u64(buf, off + 64)?;
    let stale_regular = get_u64(buf, off + 72)?;
    let stale_early = get_u64(buf, off + 80)?;
    let count = get_u32(buf, off + 88)? as usize;
    off += 92;
    if !u.is_finite() || u < 0.0 || !estimate.is_finite() || ell == 0 {
        return Err(WireError::BadField);
    }
    // Bound the claimed entry count by the bytes actually present before
    // allocating (the decode_sync discipline): a hostile count cannot
    // force a large allocation.
    if count > buf.len().saturating_sub(off) / SNAPSHOT_ENTRY_BYTES {
        return Err(WireError::Truncated);
    }
    let mut sample = Vec::with_capacity(count);
    for _ in 0..count {
        let id = get_u64(buf, off)?;
        let weight = check_finite_positive(get_f64(buf, off + 8)?)?;
        let key = check_finite_positive(get_f64(buf, off + 16)?)?;
        sample.push(Keyed::new(Item::new(id, weight), key));
        off += SNAPSHOT_ENTRY_BYTES;
    }
    Ok((
        LiveSnapshot {
            kind,
            items,
            epoch,
            u,
            estimate,
            ell,
            sites_attached,
            sites_eof,
            up_msgs,
            down_msgs,
            up_bytes,
            down_bytes,
            broadcast_events,
            stale_regular,
            stale_early,
            sample,
        },
        off,
    ))
}

/// Exact encoded size of a snapshot (excluding the response tag byte).
pub fn snapshot_len(sample_len: usize, epoch_present: bool) -> usize {
    SNAPSHOT_HEADER_BYTES + if epoch_present { 8 } else { 0 } + sample_len * SNAPSHOT_ENTRY_BYTES
}

// ---------------------------------------------------------------------------
// MetricsReport codec.

/// Smallest possible encoded [`MetricSample`]: empty name, kind byte,
/// value, absent-hist flag. Bounds hostile sample counts before allocation.
const SAMPLE_MIN_BYTES: usize = 2 + 1 + 8 + 1;

/// Smallest possible encoded [`StreamMetrics`]: two empty strings, the
/// fixed counters, absent-latency flag, empty event list.
const STREAM_MIN_BYTES: usize = 2 + 2 + 8 + 4 + 4 + 4 + 4 + 3 * 8 + 1 + 4;

fn check_finite(x: f64) -> Result<f64, WireError> {
    if x.is_finite() {
        Ok(x)
    } else {
        Err(WireError::BadField)
    }
}

fn encode_hist(h: &Option<HistSummary>, buf: &mut Vec<u8>) {
    match h {
        None => buf.push(0),
        Some(h) => {
            buf.push(1);
            put_u64(buf, h.count);
            put_f64(buf, h.p50);
            put_f64(buf, h.p90);
            put_f64(buf, h.p95);
            put_f64(buf, h.p99);
            put_f64(buf, h.max);
        }
    }
}

fn decode_hist(buf: &[u8], at: usize) -> Result<(Option<HistSummary>, usize), WireError> {
    match *buf.get(at).ok_or(WireError::Truncated)? {
        0 => Ok((None, at + 1)),
        1 => {
            let count = get_u64(buf, at + 1)?;
            let p50 = check_finite(get_f64(buf, at + 9)?)?;
            let p90 = check_finite(get_f64(buf, at + 17)?)?;
            let p95 = check_finite(get_f64(buf, at + 25)?)?;
            let p99 = check_finite(get_f64(buf, at + 33)?)?;
            let max = check_finite(get_f64(buf, at + 41)?)?;
            Ok((
                Some(HistSummary {
                    count,
                    p50,
                    p90,
                    p95,
                    p99,
                    max,
                }),
                at + 49,
            ))
        }
        _ => Err(WireError::BadField),
    }
}

fn encode_events(events: &[TraceEvent], buf: &mut Vec<u8>) {
    debug_assert!(events.len() <= u32::MAX as usize);
    put_u32(buf, events.len() as u32);
    for e in events {
        put_u64(buf, e.seq);
        put_u64(buf, e.nanos);
        buf.push(e.code);
        put_u64(buf, e.a);
        put_u64(buf, e.b);
    }
}

fn decode_events(buf: &[u8], at: usize) -> Result<(Vec<TraceEvent>, usize), WireError> {
    let count = get_u32(buf, at)? as usize;
    let mut off = at + 4;
    if count > buf.len().saturating_sub(off) / TRACE_EVENT_BYTES {
        return Err(WireError::Truncated);
    }
    let mut events = Vec::with_capacity(count);
    for _ in 0..count {
        let seq = get_u64(buf, off)?;
        let nanos = get_u64(buf, off + 8)?;
        let code = *buf.get(off + 16).ok_or(WireError::Truncated)?;
        let a = get_u64(buf, off + 17)?;
        let b = get_u64(buf, off + 25)?;
        events.push(TraceEvent {
            seq,
            nanos,
            code,
            a,
            b,
        });
        off += TRACE_EVENT_BYTES;
    }
    Ok((events, off))
}

fn encode_report(report: &MetricsReport, buf: &mut Vec<u8>) {
    put_u64(buf, report.now_nanos);
    put_u64(buf, report.uptime_nanos);
    put_u64(buf, report.streams_created);
    debug_assert!(report.samples.len() <= u32::MAX as usize);
    put_u32(buf, report.samples.len() as u32);
    for s in &report.samples {
        put_str(buf, &s.name);
        buf.push(s.kind.as_u8());
        put_f64(buf, s.value);
        encode_hist(&s.hist, buf);
    }
    encode_events(&report.events, buf);
    debug_assert!(report.streams.len() <= u32::MAX as usize);
    put_u32(buf, report.streams.len() as u32);
    for st in &report.streams {
        put_str(buf, &st.stream);
        put_str(buf, &st.query);
        put_u64(buf, st.items);
        put_u32(buf, st.sites_attached);
        put_u32(buf, st.sites_eof);
        put_u32(buf, st.queue_depth);
        put_u32(buf, st.queue_capacity);
        put_u64(buf, st.queries);
        put_u64(buf, st.stale_regular);
        put_u64(buf, st.stale_early);
        encode_hist(&st.latency, buf);
        encode_events(&st.events, buf);
    }
}

fn decode_report(buf: &[u8], at: usize) -> Result<(MetricsReport, usize), WireError> {
    let now_nanos = get_u64(buf, at)?;
    let uptime_nanos = get_u64(buf, at + 8)?;
    let streams_created = get_u64(buf, at + 16)?;
    let sample_count = get_u32(buf, at + 24)? as usize;
    let mut off = at + 28;
    if sample_count > buf.len().saturating_sub(off) / SAMPLE_MIN_BYTES {
        return Err(WireError::Truncated);
    }
    let mut samples = Vec::with_capacity(sample_count);
    for _ in 0..sample_count {
        let (name, next) = get_str(buf, off)?;
        let kind_byte = *buf.get(next).ok_or(WireError::Truncated)?;
        let kind = MetricKind::from_u8(kind_byte).ok_or(WireError::BadField)?;
        let value = check_finite(get_f64(buf, next + 1)?)?;
        let (hist, next) = decode_hist(buf, next + 9)?;
        if name.is_empty() {
            return Err(WireError::BadField);
        }
        samples.push(MetricSample {
            name,
            kind,
            value,
            hist,
        });
        off = next;
    }
    let (events, next) = decode_events(buf, off)?;
    off = next;
    let stream_count = get_u32(buf, off)? as usize;
    off += 4;
    if stream_count > buf.len().saturating_sub(off) / STREAM_MIN_BYTES {
        return Err(WireError::Truncated);
    }
    let mut streams = Vec::with_capacity(stream_count);
    for _ in 0..stream_count {
        let (stream, next) = get_str(buf, off)?;
        let (query, next) = get_str(buf, next)?;
        let items = get_u64(buf, next)?;
        let sites_attached = get_u32(buf, next + 8)?;
        let sites_eof = get_u32(buf, next + 12)?;
        let queue_depth = get_u32(buf, next + 16)?;
        let queue_capacity = get_u32(buf, next + 20)?;
        let queries = get_u64(buf, next + 24)?;
        let stale_regular = get_u64(buf, next + 32)?;
        let stale_early = get_u64(buf, next + 40)?;
        let (latency, next) = decode_hist(buf, next + 48)?;
        let (stream_events, next) = decode_events(buf, next)?;
        if stream.is_empty() {
            return Err(WireError::BadField);
        }
        streams.push(StreamMetrics {
            stream,
            query,
            items,
            sites_attached,
            sites_eof,
            queue_depth,
            queue_capacity,
            queries,
            stale_regular,
            stale_early,
            latency,
            events: stream_events,
        });
        off = next;
    }
    Ok((
        MetricsReport {
            now_nanos,
            uptime_nanos,
            streams_created,
            samples,
            events,
            streams,
        },
        off,
    ))
}

impl FrameCodec for CtrlResp {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            CtrlResp::Ok { info } => {
                buf.push(TAG_OK);
                put_str(buf, info);
            }
            CtrlResp::Err { msg } => {
                buf.push(TAG_ERR);
                put_str(buf, msg);
            }
            CtrlResp::Attached {
                site,
                resumed,
                items,
            } => {
                buf.push(TAG_ATTACHED);
                put_u32(buf, *site);
                buf.push(u8::from(*resumed));
                put_u64(buf, *items);
            }
            CtrlResp::Answer { snapshot } => {
                buf.push(TAG_ANSWER);
                encode_snapshot(snapshot, buf);
            }
            CtrlResp::Metrics { report } => {
                buf.push(TAG_METRICS_REPORT);
                encode_report(report, buf);
            }
        }
    }

    fn decode(buf: &[u8]) -> Result<(Self, usize), WireError> {
        let tag = *buf.first().ok_or(WireError::Truncated)?;
        match tag {
            TAG_OK => {
                let (info, end) = get_str(buf, 1)?;
                Ok((CtrlResp::Ok { info }, end))
            }
            TAG_ERR => {
                let (msg, end) = get_str(buf, 1)?;
                Ok((CtrlResp::Err { msg }, end))
            }
            TAG_ATTACHED => {
                let site = get_u32(buf, 1)?;
                let resumed = match *buf.get(5).ok_or(WireError::Truncated)? {
                    0 => false,
                    1 => true,
                    _ => return Err(WireError::BadField),
                };
                let items = get_u64(buf, 6)?;
                Ok((
                    CtrlResp::Attached {
                        site,
                        resumed,
                        items,
                    },
                    14,
                ))
            }
            TAG_ANSWER => {
                let (snapshot, end) = decode_snapshot(buf, 1)?;
                Ok((CtrlResp::Answer { snapshot }, end))
            }
            TAG_METRICS_REPORT => {
                let (report, end) = decode_report(buf, 1)?;
                Ok((CtrlResp::Metrics { report }, end))
            }
            other => Err(WireError::BadTag(other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot() -> LiveSnapshot {
        LiveSnapshot {
            kind: LiveQueryKind::L1Now,
            items: 123_456,
            epoch: Some(-3),
            u: 17.5,
            estimate: 120_000.0,
            ell: 9,
            sites_attached: 3,
            sites_eof: 1,
            up_msgs: 512,
            down_msgs: 64,
            up_bytes: 10_240,
            down_bytes: 576,
            broadcast_events: 8,
            stale_regular: 5,
            stale_early: 2,
            sample: vec![
                Keyed::new(Item::new(7, 2.0), 40.0),
                Keyed::new(Item::new(9, 1.0), 11.25),
            ],
        }
    }

    fn roundtrip<T: FrameCodec + PartialEq + std::fmt::Debug>(msg: &T) {
        let mut buf = Vec::new();
        msg.encode(&mut buf);
        let (back, used) = T::decode(&buf).expect("decode");
        assert_eq!(&back, msg);
        assert_eq!(used, buf.len(), "must consume the whole encoding");
    }

    #[test]
    fn roundtrip_all_msg_variants() {
        roundtrip(&CtrlMsg::Create {
            stream: "clicks".into(),
            k: 8,
            s: 64,
            query: "l1:0.2,0.25".into(),
        });
        roundtrip(&CtrlMsg::Attach {
            stream: "clicks".into(),
            site: 3,
        });
        for kind in LiveQueryKind::all() {
            roundtrip(&CtrlMsg::Query {
                stream: "x".into(),
                kind,
                arg: 100_000,
            });
        }
        roundtrip(&CtrlMsg::Drain {
            stream: "clicks".into(),
        });
        roundtrip(&CtrlMsg::Shutdown);
    }

    #[test]
    fn roundtrip_all_resp_variants() {
        roundtrip(&CtrlResp::Ok {
            info: "created".into(),
        });
        roundtrip(&CtrlResp::Err {
            msg: "no such stream".into(),
        });
        roundtrip(&CtrlResp::Attached {
            site: 2,
            resumed: true,
            items: 5000,
        });
        roundtrip(&CtrlResp::Answer {
            snapshot: sample_snapshot(),
        });
        let mut no_epoch = sample_snapshot();
        no_epoch.epoch = None;
        no_epoch.sample.clear();
        no_epoch.kind = LiveQueryKind::Stats;
        roundtrip(&CtrlResp::Answer { snapshot: no_epoch });
    }

    #[test]
    fn snapshot_len_matches_encoding() {
        let snap = sample_snapshot();
        let mut buf = Vec::new();
        CtrlResp::Answer {
            snapshot: snap.clone(),
        }
        .encode(&mut buf);
        assert_eq!(buf.len(), 1 + snapshot_len(snap.sample.len(), true));
        let mut no_epoch = snap;
        no_epoch.epoch = None;
        let mut buf2 = Vec::new();
        CtrlResp::Answer { snapshot: no_epoch }.encode(&mut buf2);
        assert_eq!(buf2.len(), buf.len() - 8);
    }

    #[test]
    fn unknown_tags_are_rejected() {
        assert_eq!(CtrlMsg::decode(&[0x7f]), Err(WireError::BadTag(0x7f)));
        assert_eq!(CtrlResp::decode(&[0x7f]), Err(WireError::BadTag(0x7f)));
        assert_eq!(CtrlMsg::decode(&[]), Err(WireError::Truncated));
        assert_eq!(CtrlResp::decode(&[]), Err(WireError::Truncated));
    }

    #[test]
    fn truncated_frames_are_rejected() {
        let mut buf = Vec::new();
        CtrlMsg::Create {
            stream: "s".into(),
            k: 2,
            s: 4,
            query: "swor".into(),
        }
        .encode(&mut buf);
        for cut in 0..buf.len() {
            assert!(
                CtrlMsg::decode(&buf[..cut]).is_err(),
                "prefix of {cut} bytes must not decode"
            );
        }
        let mut resp = Vec::new();
        CtrlResp::Answer {
            snapshot: sample_snapshot(),
        }
        .encode(&mut resp);
        for cut in 0..resp.len() {
            assert!(CtrlResp::decode(&resp[..cut]).is_err());
        }
    }

    #[test]
    fn domain_violations_are_bad_fields() {
        // Empty stream name.
        let mut buf = Vec::new();
        CtrlMsg::Drain { stream: "x".into() }.encode(&mut buf);
        buf[1] = 0;
        buf[2] = 0;
        let truncated = &buf[..3];
        assert_eq!(CtrlMsg::decode(truncated), Err(WireError::BadField));

        // k = 0 in Create.
        let mut create = Vec::new();
        CtrlMsg::Create {
            stream: "s".into(),
            k: 1,
            s: 1,
            query: "swor".into(),
        }
        .encode(&mut create);
        create[4] = 0; // k's low byte (tag + u16 len + 1-byte name)
        assert_eq!(CtrlMsg::decode(&create), Err(WireError::BadField));

        // Invalid UTF-8 in a string field.
        let mut bad_utf8 = vec![TAG_DRAIN, 1, 0, 0xff];
        assert_eq!(CtrlMsg::decode(&bad_utf8), Err(WireError::BadField));
        bad_utf8[3] = b'x';
        assert!(CtrlMsg::decode(&bad_utf8).is_ok());

        // Unknown query kind byte.
        let mut q = Vec::new();
        CtrlMsg::Query {
            stream: "s".into(),
            kind: LiveQueryKind::Stats,
            arg: 0,
        }
        .encode(&mut q);
        let kind_at = 1 + 2 + 1;
        q[kind_at] = 99;
        assert_eq!(CtrlMsg::decode(&q), Err(WireError::BadField));

        // Bool bytes other than 0/1.
        let mut att = Vec::new();
        CtrlResp::Attached {
            site: 0,
            resumed: false,
            items: 0,
        }
        .encode(&mut att);
        att[5] = 2;
        assert_eq!(CtrlResp::decode(&att), Err(WireError::BadField));
    }

    #[test]
    fn snapshot_rejects_nonpositive_entries() {
        let mut snap = sample_snapshot();
        snap.sample[0].item.weight = 1.0;
        let mut buf = Vec::new();
        CtrlResp::Answer { snapshot: snap }.encode(&mut buf);
        // Overwrite the first entry's weight with -1.0 in place.
        let entry_at = buf.len() - 2 * SNAPSHOT_ENTRY_BYTES;
        buf[entry_at + 8..entry_at + 16].copy_from_slice(&(-1.0f64).to_bits().to_le_bytes());
        assert_eq!(CtrlResp::decode(&buf), Err(WireError::BadField));
        // And a NaN key likewise.
        buf[entry_at + 8..entry_at + 16].copy_from_slice(&1.0f64.to_bits().to_le_bytes());
        buf[entry_at + 16..entry_at + 24].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
        assert_eq!(CtrlResp::decode(&buf), Err(WireError::BadField));
    }

    #[test]
    fn hostile_entry_count_is_bounded_before_allocation() {
        let mut snap = sample_snapshot();
        snap.sample.clear();
        let mut buf = Vec::new();
        CtrlResp::Answer { snapshot: snap }.encode(&mut buf);
        // Claim u32::MAX entries with no entry bytes present: must fail
        // with Truncated (checked before any allocation), not OOM.
        let count_at = buf.len() - 4;
        buf[count_at..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(CtrlResp::decode(&buf), Err(WireError::Truncated));
    }

    fn sample_report() -> MetricsReport {
        MetricsReport {
            now_nanos: 1_000_000_007,
            uptime_nanos: 999_999_999,
            streams_created: 3,
            samples: vec![
                MetricSample {
                    name: "dwrs_items_total".into(),
                    kind: MetricKind::Counter,
                    value: 123456.0,
                    hist: None,
                },
                MetricSample {
                    name: "dwrs_queue_depth".into(),
                    kind: MetricKind::Gauge,
                    value: 3.0,
                    hist: None,
                },
                MetricSample {
                    name: "dwrs_query_latency_ns".into(),
                    kind: MetricKind::Histogram,
                    value: 17.0,
                    hist: Some(HistSummary {
                        count: 17,
                        p50: 1200.0,
                        p90: 2500.0,
                        p95: 3000.0,
                        p99: 8000.0,
                        max: 9000.0,
                    }),
                },
            ],
            events: vec![TraceEvent {
                seq: 1,
                nanos: 42,
                code: 9,
                a: 0,
                b: 0,
            }],
            streams: vec![StreamMetrics {
                stream: "clicks".into(),
                query: "l1:0.2,0.25".into(),
                items: 50_000,
                sites_attached: 4,
                sites_eof: 1,
                queue_depth: 2,
                queue_capacity: 64,
                queries: 9,
                stale_regular: 12,
                stale_early: 3,
                latency: Some(HistSummary {
                    count: 9,
                    p50: 900.0,
                    p90: 1500.0,
                    p95: 1700.0,
                    p99: 2000.0,
                    max: 2100.0,
                }),
                events: vec![
                    TraceEvent {
                        seq: 10,
                        nanos: 100,
                        code: 1,
                        a: 2,
                        b: 0,
                    },
                    TraceEvent {
                        seq: 11,
                        nanos: 200,
                        code: 4,
                        a: 0,
                        b: 7,
                    },
                ],
            }],
        }
    }

    #[test]
    fn roundtrip_metrics_frames() {
        roundtrip(&CtrlMsg::Metrics { events: 32 });
        roundtrip(&CtrlResp::Metrics {
            report: sample_report(),
        });
        // Degenerate report: nothing registered, no streams.
        roundtrip(&CtrlResp::Metrics {
            report: MetricsReport {
                now_nanos: 0,
                uptime_nanos: 0,
                streams_created: 0,
                samples: vec![],
                events: vec![],
                streams: vec![],
            },
        });
    }

    #[test]
    fn truncated_metrics_report_is_rejected() {
        let mut buf = Vec::new();
        CtrlResp::Metrics {
            report: sample_report(),
        }
        .encode(&mut buf);
        for cut in 0..buf.len() {
            assert!(
                CtrlResp::decode(&buf[..cut]).is_err(),
                "prefix of {cut} bytes must not decode"
            );
        }
    }

    #[test]
    fn hostile_metrics_counts_are_bounded_before_allocation() {
        let empty = MetricsReport {
            now_nanos: 0,
            uptime_nanos: 0,
            streams_created: 0,
            samples: vec![],
            events: vec![],
            streams: vec![],
        };
        // Claim u32::MAX samples / events / streams with no bytes present:
        // each must fail Truncated, before any allocation.
        let mut buf = Vec::new();
        CtrlResp::Metrics {
            report: empty.clone(),
        }
        .encode(&mut buf);
        // Layout after the tag: 3×u64, then sample count at offset 25.
        for count_at in [25usize, 29, 33] {
            let mut hostile = buf.clone();
            hostile[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            assert_eq!(
                CtrlResp::decode(&hostile),
                Err(WireError::Truncated),
                "count at {count_at}"
            );
        }
        let _ = empty;
    }

    #[test]
    fn metrics_report_domain_violations() {
        // Unknown metric kind byte.
        let mut report = sample_report();
        report.streams.clear();
        report.events.clear();
        report.samples.truncate(1);
        let mut buf = Vec::new();
        CtrlResp::Metrics {
            report: report.clone(),
        }
        .encode(&mut buf);
        let name_len = report.samples[0].name.len();
        let kind_at = 1 + 24 + 4 + 2 + name_len;
        buf[kind_at] = 99;
        assert_eq!(CtrlResp::decode(&buf), Err(WireError::BadField));

        // NaN metric value.
        buf[kind_at] = MetricKind::Counter.as_u8();
        buf[kind_at + 1..kind_at + 9].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
        assert_eq!(CtrlResp::decode(&buf), Err(WireError::BadField));

        // Hist flag byte other than 0/1.
        buf[kind_at + 1..kind_at + 9].copy_from_slice(&1.0f64.to_bits().to_le_bytes());
        buf[kind_at + 9] = 2;
        assert_eq!(CtrlResp::decode(&buf), Err(WireError::BadField));
    }

    #[test]
    fn json_shape_is_stable() {
        let snap = sample_snapshot();
        let js = snap.to_json("clicks");
        assert!(js.starts_with("{\"stream\":\"clicks\",\"kind\":\"l1-now\","));
        assert!(js.contains("\"items\":123456"));
        assert!(js.contains("\"epoch\":-3"));
        assert!(js.contains("\"stale_regular\":5,\"stale_early\":2,\"sample_size\":2"));
        let mut none = snap;
        none.epoch = None;
        assert!(none.to_json("a\"b").contains("\"stream\":\"a\\\"b\""));
        assert!(none.to_json("x").contains("\"epoch\":null"));
    }
}
