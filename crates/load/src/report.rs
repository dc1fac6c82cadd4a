//! What a load run hands back: throughput, latency percentiles, chaos
//! events, and the invariant verdict.

use crate::plan::FaultAction;

/// Query-latency percentiles pooled across every query worker's
/// [`dwrs_stats::QuantileSketch`] (rank error adds across the merge, so
/// the pool is as accurate as one worker's sketch over all latencies).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LatencySummary {
    /// Latencies recorded (queries + scrapes).
    pub count: u64,
    /// Median latency in microseconds.
    pub p50_us: f64,
    /// 90th-percentile latency in microseconds.
    pub p90_us: f64,
    /// 99th-percentile latency in microseconds.
    pub p99_us: f64,
    /// Worst observed latency in microseconds (exact, not sketched).
    pub max_us: f64,
}

/// One executed fault, as the chaos controller recorded it.
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosEvent {
    /// Writer (site slot) the fault hit.
    pub site: usize,
    /// The action taken.
    pub action: FaultAction,
    /// The writer's fed-item watermark at the trigger.
    pub at_items: u64,
    /// Outage / silence dwell in milliseconds.
    pub dwell_ms: u64,
    /// Stream items watermark of the mid-outage snapshot the controller
    /// took while the site was down.
    pub snapshot_items: u64,
    /// Failed attach attempts the writer burned reconnecting (0 = first
    /// try succeeded; clean kills usually reattach immediately, drops
    /// may race the daemon noticing the dead link).
    pub retries: u32,
}

/// Everything a completed [`crate::run_load`] reports.
///
/// `violations` is the verdict: an empty list means every post-run
/// invariant held (sample containment across failover, monotone
/// watermarks, error envelopes, rate accuracy). The CLI exits non-zero
/// on any violation, which is what lets CI gate on a load run.
#[derive(Clone, Debug)]
pub struct LoadReport {
    /// Schedule spec the run used (e.g. `bursty:1000,20,4`).
    pub schedule: String,
    /// Target mean rate in items/s across all writers.
    pub rate: u64,
    /// Whether a chaos plan ran.
    pub chaos: bool,
    /// Fault-plan / workload seed.
    pub seed: u64,
    /// Writer workers (site slots).
    pub writers: usize,
    /// Query workers interleaving live queries.
    pub query_workers: usize,
    /// Items requested.
    pub n: u64,
    /// Items actually fed into attach clients (equals `n` minus items
    /// lost to kill-drop faults still unflushed at the drop).
    pub fed: u64,
    /// Final stream watermark the daemon reported after drain.
    pub delivered: u64,
    /// Wall-clock feeding time in seconds (start of feeding to the last
    /// writer finishing).
    pub elapsed_s: f64,
    /// `fed / elapsed_s`.
    pub achieved_rate: f64,
    /// Signed deviation of `achieved_rate` from `rate`, in percent.
    pub rate_error_pct: f64,
    /// Live queries answered.
    pub queries: u64,
    /// Telemetry scrapes answered (query workers + the runner's own).
    pub scrapes: u64,
    /// Query/scrape attempts that failed.
    pub query_errors: u64,
    /// Pooled query-latency percentiles (`None` when no query workers
    /// ran).
    pub latency: Option<LatencySummary>,
    /// Executed faults, in execution order.
    pub events: Vec<ChaosEvent>,
    /// Invariant violations; empty = pass.
    pub violations: Vec<String>,
}

impl LoadReport {
    /// Whether every post-run invariant held.
    pub fn invariants_ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Serializes the report as one single-line JSON object — what
    /// `dwrs load --format json` prints (schema in `docs/LOAD.md`).
    pub fn to_json(&self) -> String {
        let latency = match &self.latency {
            None => "null".to_string(),
            Some(l) => format!(
                concat!(
                    "{{\"count\":{},\"p50_us\":{},\"p90_us\":{},",
                    "\"p99_us\":{},\"max_us\":{}}}"
                ),
                l.count,
                json_f64(l.p50_us),
                json_f64(l.p90_us),
                json_f64(l.p99_us),
                json_f64(l.max_us),
            ),
        };
        let events: Vec<String> = self
            .events
            .iter()
            .map(|e| {
                format!(
                    concat!(
                        "{{\"site\":{},\"action\":\"{}\",\"at_items\":{},",
                        "\"dwell_ms\":{},\"snapshot_items\":{},\"retries\":{}}}"
                    ),
                    e.site,
                    e.action.name(),
                    e.at_items,
                    e.dwell_ms,
                    e.snapshot_items,
                    e.retries,
                )
            })
            .collect();
        let violations: Vec<String> = self
            .violations
            .iter()
            .map(|v| format!("\"{}\"", json_escape(v)))
            .collect();
        format!(
            concat!(
                "{{\"schedule\":\"{}\",\"rate\":{},\"chaos\":{},\"seed\":{},",
                "\"writers\":{},\"query_workers\":{},",
                "\"n\":{},\"fed\":{},\"delivered\":{},\"elapsed_s\":{},",
                "\"achieved_rate\":{},\"rate_error_pct\":{},",
                "\"queries\":{},\"scrapes\":{},\"query_errors\":{},",
                "\"latency\":{},\"events\":[{}],\"violations\":[{}]}}"
            ),
            json_escape(&self.schedule),
            self.rate,
            self.chaos,
            self.seed,
            self.writers,
            self.query_workers,
            self.n,
            self.fed,
            self.delivered,
            json_f64(self.elapsed_s),
            json_f64(self.achieved_rate),
            json_f64(self.rate_error_pct),
            self.queries,
            self.scrapes,
            self.query_errors,
            latency,
            events.join(","),
            violations.join(","),
        )
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
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
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_row_is_well_formed() {
        let report = LoadReport {
            schedule: "bursty:1000,20,4".into(),
            rate: 50_000,
            chaos: true,
            seed: 42,
            writers: 4,
            query_workers: 2,
            n: 200_000,
            fed: 199_900,
            delivered: 199_900,
            elapsed_s: 4.01,
            achieved_rate: 49_850.4,
            rate_error_pct: -0.3,
            queries: 812,
            scrapes: 161,
            query_errors: 0,
            latency: Some(LatencySummary {
                count: 973,
                p50_us: 180.0,
                p90_us: 410.0,
                p99_us: 1220.0,
                max_us: 5300.0,
            }),
            events: vec![ChaosEvent {
                site: 1,
                action: FaultAction::KillDrop,
                at_items: 31_000,
                dwell_ms: 17,
                snapshot_items: 120_400,
                retries: 2,
            }],
            violations: vec![],
        };
        let json = report.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(!json.contains('\n'));
        for key in [
            "\"schedule\":\"bursty:1000,20,4\"",
            "\"chaos\":true",
            "\"p99_us\":1220",
            "\"action\":\"kill-drop\"",
            "\"violations\":[]",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(report.invariants_ok());
    }

    #[test]
    fn violations_escape_cleanly() {
        let mut r = LoadReport {
            schedule: "steady".into(),
            rate: 1,
            chaos: false,
            seed: 0,
            writers: 1,
            query_workers: 0,
            n: 1,
            fed: 1,
            delivered: 1,
            elapsed_s: 1.0,
            achieved_rate: 1.0,
            rate_error_pct: 0.0,
            queries: 0,
            scrapes: 0,
            query_errors: 0,
            latency: None,
            events: vec![],
            violations: vec![],
        };
        r.violations.push("rate off by \"12%\"\nsecond line".into());
        let json = r.to_json();
        assert!(json.contains("\\\"12%\\\""));
        assert!(json.contains("\\n"));
        assert!(!r.invariants_ok());
        assert!(json.contains("\"latency\":null"));
    }
}
