//! Minimal dependency-free argument parsing.

use std::collections::BTreeMap;

/// Usage banner.
pub const USAGE: &str = "\
usage: dwrs <command> [--flag value ...]

commands:
  sample       run distributed weighted SWOR over a synthetic stream
               (single-threaded lockstep simulator)
               flags: --n --k --s --workload --seed --partition --latency
  run          run one of the paper's applications on a selectable engine
               and report throughput alongside the sample, metrics and the
               query's answer; the workload streams through the scenario
               driver's bounded dispatcher, so memory stays O(batch x
               queue) whatever --n
               flags: --engine {lockstep|threads|epoll}
                                                       (default threads;
                        epoll = loopback TCP, every connection
                        multiplexed onto a few event-loop threads)
                      --topology {flat|tree}          (default flat)
                      --query  {swor|l1[:eps[,delta]]|rhh[:eps[,delta]]
                                |window[:len]}        (default swor)
                        swor    continuous weighted SWOR (sample size --s)
                        l1      L1/count tracking, W~ = (1+-eps)W (Thm 6);
                                s and the duplication factor derive from
                                eps,delta (defaults 0.2,0.25)
                        rhh     residual heavy hitters (Thm 4): top 2/eps
                                sample items by weight, recall checked
                                against the exact oracle (defaults
                                eps 0.2, delta 0.05)
                        window  weighted SWOR over the last len arrivals
                                (default 100000; needs arrival-ordered ids,
                                true for every built-in workload)
                      --n --k --s --workload --seed --partition
                      --batch <msgs per upstream frame>   (default 64)
                      --queue <up-queue bound in batches> (default 128)
                      --down-poll-every <items between down-link polls>
                                                          (default 32;
                        lower = fresher thresholds, higher = throughput)
                      --format {text|json}                (default text)
                      --materialize {true|false}          (default false;
                        true pre-builds the stream in memory, O(n) RSS)
               tree topology only (--k sites split across groups, each
               group's aggregator syncing its sample to a root merger):
                      --groups <g>          (default 2; must divide --k)
                      --sync-every <items>  (default 10000)
               counts (--n, --sync-every) accept magnitudes: 250k, 1m,
               2.5e6, 1g
  daemon       run the long-lived multi-stream sampling service: hosts
               many named streams (each with its own k, s, and query),
               accepts attach/detach/reconnect mid-run, and answers live
               queries while streams run; drains gracefully on a shutdown
               control frame or SIGTERM/SIGINT
               flags: --listen (default 127.0.0.1:0, prints bound address)
                      --seed --queue
  attach       drive one site slot of a daemon stream (creates the stream
               first if needed; an existing stream keeps its original
               configuration); --eof false detaches instead of finishing,
               leaving the slot resumable by a later attach
               flags: --connect <addr> --stream <name> --site <i>
                      --query {swor|l1[:eps[,delta]]|rhh[:eps[,delta]]
                               |window[:len]}  (stream query, default swor)
                      --eof {true|false}       (default true)
                      --n --k --s --workload --seed --partition --batch
                      --down-poll-every
  query        live queries against a running daemon stream
               flags: --connect <addr> --stream <name>
                      --kind {sample|l1-now|rhh-so-far|window-now|stats
                              |drain|shutdown} (default stats)
                      --window <len>  (window-now on non-window streams)
                      --repeat <n>    (re-issue n times; prints queries/s
                                       plus sketch-backed round-trip
                                       latency p50/p90/p99/max)
                      --format {text|json}
  metrics      one-shot telemetry scrape of a running daemon: counters,
               gauges, quantile histograms, trace events, and a section
               per live stream
               flags: --connect <addr>
                      --format {prom|json}  (default prom: Prometheus-
                                             style exposition text)
                      --events <n>          (trace events per ring,
                                             default 32)
  top          refreshing per-stream table against a live daemon:
               items/s (from consecutive scrapes), sites attached/eof,
               queue depth, live-query latency p50/p95/p99, last trace
               event
               flags: --connect <addr>
                      --refresh <seconds>   (default 1)
                      --iterations <n>      (default 0 = until stopped)
                      --events <n>          (default 4)
  load         drive a daemon stream at a configured rate under a traffic
               schedule, interleave live query workers, optionally execute
               a seeded chaos plan (clean kills, connection drops, pauses),
               and assert the post-run invariants (sample containment
               across failover, monotone watermarks, error envelopes);
               exits non-zero on any violation
               flags: --connect <addr>  (omit to run an in-process daemon
                                         for the duration of the run)
                      --stream <name>          (default load)
                      --writers <w>            (site slots, default 4)
                      --s <sample size>        (default 64)
                      --query {swor|l1[:eps[,delta]]|rhh[:eps[,delta]]
                               |window[:len]}  (default swor)
                      --rate <items/s>         (default 50k; magnitudes ok)
                      --n <items>              (default 100k)
                      --schedule {steady|bursty[:period_ms,duty_pct,burst]
                                  |diurnal[:period_ms,amp]
                                  |hotkey[:hot_pct]}     (default steady)
                      --query-workers <q>      (default 2)
                      --faults <f>    (default 0 = chaos off; faults round-
                                       robin across writers, actions cycle
                                       kill-clean, kill-drop, pause)
                      --seed <seed>            (default 1)
                      --batch --queue          (attach-client batching)
                      --format {text|json}     (default text)
  workload     print a generated workload as CSV (id,weight)
               flags: --kind --n --seed
  track-l1     compare the L1 trackers on a unit stream
               flags: --n --k --eps --seed
  residual-hh  track residual heavy hitters on a skewed stream
               flags: --n --k --eps --delta --top --seed

workload kinds: unit | uniform:<lo>,<hi> | zipf:<alpha> | zipf_iid:<alpha>
                | pareto:<alpha> | lognormal:<mu>,<sigma>
                | residual_skew:<top>
                | csv:<path> (id,weight records; `dwrs workload` output)
                zipf is the exact rank permutation (O(n) memory; `run`
                needs --materialize true); zipf_iid draws i.i.d. ranks
                and streams at O(1) memory
partitions:     roundrobin | random | single:<i> | skewed:<hot>";

/// The flags each command accepts, space-separated and each documented in
/// the command's section of [`USAGE`]; any other flag is an error, and a
/// command not listed (`help`) takes none.
pub(crate) const COMMAND_FLAGS: &[(&str, &str)] = &[
    ("sample", "n k s workload seed partition latency"),
    (
        "run",
        "engine topology query n k s workload seed partition batch queue down-poll-every \
         format materialize groups sync-every",
    ),
    ("daemon", "listen seed queue"),
    (
        "attach",
        "connect stream site query eof n k s workload seed partition batch down-poll-every",
    ),
    ("query", "connect stream kind window repeat format"),
    ("metrics", "connect format events"),
    ("top", "connect refresh iterations events"),
    (
        "load",
        "connect stream writers s query rate n schedule query-workers faults seed batch \
         queue format",
    ),
    ("workload", "kind n seed"),
    ("track-l1", "n k eps seed"),
    ("residual-hh", "n k eps delta top seed"),
];

/// Parse failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArgError(pub String);

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ArgError {}

/// Parsed command line: a command plus `--key value` flags.
#[derive(Clone, Debug)]
pub struct Parsed {
    /// The subcommand.
    pub command: String,
    /// Flag map (keys without the leading dashes).
    pub flags: BTreeMap<String, String>,
}

impl Parsed {
    /// String flag with default.
    pub fn str_or(&self, key: &str, default: &str) -> String {
        self.flags
            .get(key)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    /// Integer flag with default.
    pub fn u64_or(&self, key: &str, default: u64) -> Result<u64, ArgError> {
        match self.flags.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ArgError(format!("--{key} expects an integer, got '{v}'"))),
        }
    }

    /// Float flag with default.
    pub fn f64_or(&self, key: &str, default: f64) -> Result<f64, ArgError> {
        match self.flags.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ArgError(format!("--{key} expects a number, got '{v}'"))),
        }
    }

    /// Integer flag with default that must be at least 1.
    pub(crate) fn positive_or(&self, key: &str, default: u64) -> Result<u64, ArgError> {
        match self.u64_or(key, default)? {
            0 => Err(ArgError(format!("--{key} must be at least 1"))),
            v => Ok(v),
        }
    }

    /// Fails on any flag that is not in the space-separated `accepted`,
    /// naming it.
    pub(crate) fn check_flags(&self, accepted: &str) -> Result<(), ArgError> {
        match self
            .flags
            .keys()
            .find(|k| !accepted.split_whitespace().any(|a| a == k.as_str()))
        {
            None => Ok(()),
            Some(k) => Err(ArgError(format!(
                "unknown flag --{k} for '{}' (dwrs help lists its flags)",
                self.command
            ))),
        }
    }

    /// Count flag with default, accepting human-readable magnitudes (see
    /// [`parse_magnitude`]): `--n 1m`, `--n 250k`, `--n 2.5e6`.
    pub fn magnitude_or(&self, key: &str, default: u64) -> Result<u64, ArgError> {
        match self.flags.get(key) {
            None => Ok(default),
            Some(v) => parse_magnitude(v).map_err(|e| ArgError(format!("--{key}: {e}"))),
        }
    }
}

/// Parses a count with optional human-readable magnitude: a plain integer
/// (`1000000`), a decimal with a `k`/`m`/`g`/`b` suffix (`250k`, `1m`,
/// `2.5m`, `1g` — case-insensitive; `b` = `g` = 10⁹), or scientific
/// notation (`2.5e6`). The value must be a non-negative whole number of
/// items.
pub fn parse_magnitude(v: &str) -> Result<u64, String> {
    let v = v.trim();
    if v.is_empty() {
        return Err("expects a count, got ''".into());
    }
    if let Ok(n) = v.parse::<u64>() {
        return Ok(n);
    }
    let (digits, multiplier) = match v.chars().last().map(|c| c.to_ascii_lowercase()) {
        Some('k') => (&v[..v.len() - 1], 1e3),
        Some('m') => (&v[..v.len() - 1], 1e6),
        Some('g') | Some('b') => (&v[..v.len() - 1], 1e9),
        _ => (v, 1.0),
    };
    let base: f64 = digits
        .parse()
        .map_err(|_| format!("expects a count like 1000000, 250k, 1m or 2.5e6, got '{v}'"))?;
    let scaled = base * multiplier;
    if !scaled.is_finite() || scaled < 0.0 || scaled > u64::MAX as f64 {
        return Err(format!("count '{v}' is out of range"));
    }
    if (scaled - scaled.round()).abs() > 1e-6 {
        return Err(format!("count '{v}' is not a whole number of items"));
    }
    Ok(scaled.round() as u64)
}

/// Parses `argv` (without the program name) into a [`Parsed`].
pub fn parse_args(argv: &[String]) -> Result<Parsed, ArgError> {
    let mut it = argv.iter();
    let command = it
        .next()
        .ok_or_else(|| ArgError("missing command".into()))?
        .clone();
    if command.starts_with("--") {
        return Err(ArgError(format!(
            "expected a command, got flag '{command}'"
        )));
    }
    let mut flags = BTreeMap::new();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| ArgError(format!("expected --flag, got '{flag}'")))?;
        let value = it
            .next()
            .ok_or_else(|| ArgError(format!("--{key} needs a value")))?;
        flags.insert(key.to_string(), value.clone());
    }
    Ok(Parsed { command, flags })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_command_and_flags() {
        let p = parse_args(&argv("sample --n 100 --k 4")).unwrap();
        assert_eq!(p.command, "sample");
        assert_eq!(p.u64_or("n", 0).unwrap(), 100);
        assert_eq!(p.u64_or("k", 0).unwrap(), 4);
        assert_eq!(p.u64_or("s", 16).unwrap(), 16);
    }

    #[test]
    fn rejects_missing_value() {
        assert!(parse_args(&argv("sample --n")).is_err());
    }

    #[test]
    fn rejects_bare_value() {
        assert!(parse_args(&argv("sample n 100")).is_err());
    }

    #[test]
    fn rejects_flag_as_command() {
        assert!(parse_args(&argv("--n 100")).is_err());
    }

    #[test]
    fn rejects_empty() {
        assert!(parse_args(&[]).is_err());
    }

    #[test]
    fn magnitudes_parse() {
        assert_eq!(parse_magnitude("1000000").unwrap(), 1_000_000);
        assert_eq!(parse_magnitude("250k").unwrap(), 250_000);
        assert_eq!(parse_magnitude("1m").unwrap(), 1_000_000);
        assert_eq!(parse_magnitude("2.5m").unwrap(), 2_500_000);
        assert_eq!(parse_magnitude("2.5M").unwrap(), 2_500_000);
        assert_eq!(parse_magnitude("2.5e6").unwrap(), 2_500_000);
        assert_eq!(parse_magnitude("1g").unwrap(), 1_000_000_000);
        assert_eq!(parse_magnitude("1b").unwrap(), 1_000_000_000);
        assert_eq!(parse_magnitude("0").unwrap(), 0);
        assert!(parse_magnitude("abc").is_err());
        assert!(parse_magnitude("1.5").is_err(), "fractional items rejected");
        assert!(parse_magnitude("-5k").is_err());
        assert!(parse_magnitude("").is_err());
        assert!(parse_magnitude("1e30").is_err(), "out of u64 range");
    }

    #[test]
    fn magnitude_flag_reports_key() {
        let p = parse_args(&argv("run --n 2m --sync-every 250k")).unwrap();
        assert_eq!(p.magnitude_or("n", 0).unwrap(), 2_000_000);
        assert_eq!(p.magnitude_or("sync-every", 0).unwrap(), 250_000);
        assert_eq!(p.magnitude_or("absent", 7).unwrap(), 7);
        let p = parse_args(&argv("run --n xyz")).unwrap();
        let err = p.magnitude_or("n", 0).unwrap_err();
        assert!(err.0.contains("--n"), "{err}");
    }

    #[test]
    fn numeric_validation() {
        let p = parse_args(&argv("sample --eps abc")).unwrap();
        assert!(p.f64_or("eps", 0.1).is_err());
        let p = parse_args(&argv("sample --eps 0.25")).unwrap();
        assert_eq!(p.f64_or("eps", 0.1).unwrap(), 0.25);
    }
}
