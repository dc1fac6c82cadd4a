//! Renders a [`MetricsReport`] for operators: Prometheus exposition text
//! for scrapers, single-line-friendly JSON for tooling. Both the daemon
//! CLI (`dwrs metrics`) and tests render through here so every consumer
//! sees the identical shape.

use dwrs_core::ctrl::{HistSummary, MetricKind, MetricsReport, StreamMetrics, TraceEvent};

use crate::trace::event_name;

fn prom_f64(x: f64) -> String {
    if x == x.trunc() && x.abs() < 1e15 {
        format!("{}", x as i64)
    } else {
        format!("{x}")
    }
}

fn prom_label(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn push_summary(out: &mut String, name: &str, labels: &str, h: &HistSummary) {
    let sep = if labels.is_empty() { "" } else { "," };
    for (q, v) in [
        ("0.5", h.p50),
        ("0.9", h.p90),
        ("0.95", h.p95),
        ("0.99", h.p99),
        ("1", h.max),
    ] {
        out.push_str(&format!(
            "{name}{{{labels}{sep}quantile=\"{q}\"}} {}\n",
            prom_f64(v)
        ));
    }
    let brace = if labels.is_empty() {
        String::new()
    } else {
        format!("{{{labels}}}")
    };
    out.push_str(&format!("{name}_count{brace} {}\n", h.count));
}

/// Prometheus exposition text: the daemon's registry, daemon lifetime
/// gauges, and per-stream series labeled `stream="<name>"`.
pub fn render_prometheus(report: &MetricsReport) -> String {
    let mut out = String::new();
    out.push_str("# TYPE dwrs_uptime_seconds gauge\n");
    out.push_str(&format!(
        "dwrs_uptime_seconds {}\n",
        report.uptime_nanos as f64 / 1e9
    ));
    out.push_str("# TYPE dwrs_streams_created_total counter\n");
    out.push_str(&format!(
        "dwrs_streams_created_total {}\n",
        report.streams_created
    ));
    for s in &report.samples {
        out.push_str(&format!("# TYPE {} {}\n", s.name, s.kind.prom_type()));
        match (s.kind, &s.hist) {
            (MetricKind::Histogram, Some(h)) => push_summary(&mut out, &s.name, "", h),
            (MetricKind::Histogram, None) => {
                out.push_str(&format!("{}_count 0\n", s.name));
            }
            _ => out.push_str(&format!("{} {}\n", s.name, prom_f64(s.value))),
        }
    }
    for st in &report.streams {
        let label = format!("stream=\"{}\"", prom_label(&st.stream));
        out.push_str(&format!(
            "dwrs_stream_items_total{{{label}}} {}\n",
            st.items
        ));
        out.push_str(&format!(
            "dwrs_stream_sites_attached{{{label}}} {}\n",
            st.sites_attached
        ));
        out.push_str(&format!(
            "dwrs_stream_sites_eof{{{label}}} {}\n",
            st.sites_eof
        ));
        out.push_str(&format!(
            "dwrs_stream_queue_depth{{{label}}} {}\n",
            st.queue_depth
        ));
        out.push_str(&format!(
            "dwrs_stream_queries_total{{{label}}} {}\n",
            st.queries
        ));
        if let Some(h) = &st.latency {
            push_summary(&mut out, "dwrs_stream_query_latency_ns", &label, h);
        }
    }
    out
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

fn json_hist(h: &Option<HistSummary>) -> String {
    match h {
        None => "null".into(),
        Some(h) => format!(
            "{{\"count\":{},\"p50\":{},\"p90\":{},\"p95\":{},\"p99\":{},\"max\":{}}}",
            h.count,
            json_f64(h.p50),
            json_f64(h.p90),
            json_f64(h.p95),
            json_f64(h.p99),
            json_f64(h.max)
        ),
    }
}

fn json_events(events: &[TraceEvent]) -> String {
    let entries: Vec<String> = events
        .iter()
        .map(|e| {
            format!(
                "{{\"seq\":{},\"nanos\":{},\"event\":\"{}\",\"a\":{},\"b\":{}}}",
                e.seq,
                e.nanos,
                event_name(e.code),
                e.a,
                e.b
            )
        })
        .collect();
    format!("[{}]", entries.join(","))
}

fn json_stream(st: &StreamMetrics) -> String {
    format!(
        concat!(
            "{{\"stream\":\"{}\",\"query\":\"{}\",\"items\":{},",
            "\"sites_attached\":{},\"sites_eof\":{},\"queue_depth\":{},",
            "\"queue_capacity\":{},\"queries\":{},\"stale_regular\":{},",
            "\"stale_early\":{},\"latency\":{},",
            "\"events\":{}}}"
        ),
        json_escape(&st.stream),
        json_escape(&st.query),
        st.items,
        st.sites_attached,
        st.sites_eof,
        st.queue_depth,
        st.queue_capacity,
        st.queries,
        st.stale_regular,
        st.stale_early,
        json_hist(&st.latency),
        json_events(&st.events)
    )
}

/// The report as one JSON object (pretty enough for `jq`, stable enough
/// for scripts): `now_nanos`, `uptime_nanos`, `streams_created`, a
/// `metrics` array mirroring the registry, `events`, and a `streams`
/// array of per-stream sections.
pub fn render_json(report: &MetricsReport) -> String {
    let samples: Vec<String> = report
        .samples
        .iter()
        .map(|s| {
            format!(
                "{{\"name\":\"{}\",\"kind\":\"{}\",\"value\":{},\"summary\":{}}}",
                json_escape(&s.name),
                s.kind.prom_type(),
                json_f64(s.value),
                json_hist(&s.hist)
            )
        })
        .collect();
    let streams: Vec<String> = report.streams.iter().map(json_stream).collect();
    format!(
        concat!(
            "{{\"now_nanos\":{},\"uptime_nanos\":{},\"streams_created\":{},",
            "\"metrics\":[{}],\"events\":{},\"streams\":[{}]}}"
        ),
        report.now_nanos,
        report.uptime_nanos,
        report.streams_created,
        samples.join(","),
        json_events(&report.events),
        streams.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use dwrs_core::ctrl::MetricSample;

    fn report() -> MetricsReport {
        MetricsReport {
            now_nanos: 5_000,
            uptime_nanos: 2_000_000_000,
            streams_created: 2,
            samples: vec![
                MetricSample {
                    name: "dwrs_items_total".into(),
                    kind: MetricKind::Counter,
                    value: 10.0,
                    hist: None,
                },
                MetricSample {
                    name: "dwrs_query_latency_ns".into(),
                    kind: MetricKind::Histogram,
                    value: 3.0,
                    hist: Some(HistSummary {
                        count: 3,
                        p50: 100.0,
                        p90: 200.0,
                        p95: 200.0,
                        p99: 200.0,
                        max: 250.0,
                    }),
                },
            ],
            events: vec![TraceEvent {
                seq: 0,
                nanos: 17,
                code: crate::trace::TraceKind::Connection.as_u8(),
                a: 1,
                b: 0,
            }],
            streams: vec![StreamMetrics {
                stream: "s1".into(),
                query: "swor".into(),
                items: 42,
                sites_attached: 2,
                sites_eof: 0,
                queue_depth: 1,
                queue_capacity: 64,
                queries: 5,
                stale_regular: 7,
                stale_early: 1,
                latency: None,
                events: vec![],
            }],
        }
    }

    #[test]
    fn prometheus_shape() {
        let text = render_prometheus(&report());
        assert!(text.contains("# TYPE dwrs_items_total counter\n"));
        assert!(text.contains("dwrs_items_total 10\n"));
        assert!(text.contains("# TYPE dwrs_query_latency_ns summary\n"));
        assert!(text.contains("dwrs_query_latency_ns{quantile=\"0.5\"} 100\n"));
        assert!(text.contains("dwrs_query_latency_ns_count 3\n"));
        assert!(text.contains("dwrs_uptime_seconds 2\n"));
        assert!(text.contains("dwrs_stream_items_total{stream=\"s1\"} 42\n"));
        assert!(text.contains("dwrs_stream_queue_depth{stream=\"s1\"} 1\n"));
    }

    #[test]
    fn json_shape() {
        let js = render_json(&report());
        assert!(js.starts_with("{\"now_nanos\":5000,"));
        assert!(js.contains("\"name\":\"dwrs_items_total\",\"kind\":\"counter\",\"value\":10"));
        assert!(js.contains("\"summary\":{\"count\":3,\"p50\":100,"));
        assert!(js.contains("\"event\":\"connection\""));
        assert!(js.contains("\"stream\":\"s1\",\"query\":\"swor\",\"items\":42"));
        assert!(js.contains("\"stale_regular\":7,\"stale_early\":1,\"latency\":null"));
    }
}
