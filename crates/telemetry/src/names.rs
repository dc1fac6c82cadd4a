//! The stable metric-name catalog.
//!
//! Every series a daemon emits is named here, once, so operators can
//! grep dashboards against a single table and the doc-sync test
//! (`tests/daemon_docs.rs`) can assert `docs/DAEMON.md` documents exactly
//! these. Each daemon records into its own registry; batch engine runs
//! report through `RunReport` instead.
//! Names follow the Prometheus convention: `dwrs_` prefix, `_total` suffix
//! for counters, unit suffix (`_ns`) for histograms.

/// Items ingested by the daemon's stream processors.
pub const METRIC_ITEMS_TOTAL: &str = "dwrs_items_total";
/// Site → coordinator protocol messages sent.
pub const METRIC_UP_MESSAGES_TOTAL: &str = "dwrs_up_messages_total";
/// Coordinator → site protocol messages sent (a broadcast counts `k`).
pub const METRIC_DOWN_MESSAGES_TOTAL: &str = "dwrs_down_messages_total";
/// Exact wire bytes moved in either direction.
pub const METRIC_WIRE_BYTES_TOTAL: &str = "dwrs_wire_bytes_total";
/// Epoch/saturation broadcast events at the coordinator.
pub const METRIC_BROADCAST_EVENTS_TOTAL: &str = "dwrs_broadcast_events_total";
/// Regular messages that reached a coordinator at or below the threshold
/// it had already broadcast (sent from a stale view; lockstep sends none).
pub const METRIC_STALE_REGULAR_TOTAL: &str = "dwrs_stale_regular_messages_total";
/// Early messages for a level the coordinator had already saturated whose
/// key would not have cleared that threshold either.
pub const METRIC_STALE_EARLY_TOTAL: &str = "dwrs_stale_early_messages_total";
/// Live queries answered by stream processors (drains not included).
pub const METRIC_LIVE_QUERIES_TOTAL: &str = "dwrs_live_queries_total";
/// Control requests refused with `CtrlResp::Err`.
pub const METRIC_CTRL_ERRORS_TOTAL: &str = "dwrs_ctrl_errors_total";
/// Control/data connections accepted by the daemon listener.
pub const METRIC_CONNECTIONS_TOTAL: &str = "dwrs_connections_total";
/// Telemetry scrapes served (`TAG_METRICS`).
pub const METRIC_SCRAPES_TOTAL: &str = "dwrs_metrics_scrapes_total";
/// Streams currently live in the daemon.
pub const METRIC_STREAMS_ACTIVE: &str = "dwrs_streams_active";
/// Site slots currently attached across all streams.
pub const METRIC_SITES_ATTACHED: &str = "dwrs_sites_attached";
/// Distribution of live-query service latency in nanoseconds, measured
/// from dequeue to answer inside the stream processor.
pub const METRIC_QUERY_LATENCY_NS: &str = "dwrs_query_latency_ns";
