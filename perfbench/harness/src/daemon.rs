//! The `daemon-live` system under test: a `dwrs daemon` child process, fed
//! by an open-loop writer on one `AttachClient` while a closed-loop query
//! thread runs the live-query mix on one `CtrlClient`.

use std::io::{self, BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use dwrs_core::ctrl::{CtrlResp, LiveQueryKind, LiveSnapshot};
use dwrs_core::swor::SworConfig;
use dwrs_core::Item;
use dwrs_runtime::{AttachClient, CtrlClient, RuntimeConfig};
use dwrs_sim::swor_site;

use crate::probes::key_bits;
use crate::sys;
use crate::trace::Tracer;
use crate::workload::{Outcome, S};

/// Name of the stream every session creates.
const STREAM: &str = "bench";
/// Items per `AttachClient::feed` call of the open-loop writer: small, so
/// the writer's bursts (about 50 µs each) rarely hold a CPU the query
/// path is waiting for.
const FEED_CHUNK: u64 = 512;
/// Think time between two requests of the closed-loop query thread (the
/// `dwrs load` mix).
const QUERY_THINK: Duration = Duration::from_micros(300);
/// How long a stopping daemon may take to drain and exit before it is
/// killed.
const STOP_GRACE: Duration = Duration::from_secs(20);

/// A running `dwrs daemon` child. Dropping it kills and reaps the process.
pub struct DaemonChild {
    child: Child,
    addr: String,
    drain_stdout: Option<JoinHandle<()>>,
}

impl DaemonChild {
    /// Starts `dwrs daemon` on an ephemeral loopback port (this binary's
    /// `dwrs` mode runs the CLI's own entry point) and waits until it
    /// listens.
    pub fn spawn(seed: u64) -> io::Result<DaemonChild> {
        let exe = std::env::current_exe()?;
        let mut child = Command::new(exe)
            .args(["dwrs", "daemon", "--listen", "127.0.0.1:0", "--seed"])
            .arg(seed.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut reader = BufReader::new(stdout);
        let mut line = String::new();
        let addr = loop {
            line.clear();
            if reader.read_line(&mut line)? == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err(io::Error::other("daemon exited before listening"));
            }
            if let Some(addr) = line.trim().strip_prefix("daemon listening on ") {
                break addr.to_string();
            }
        };
        // Keep reading so the child can never block on a full pipe.
        let drain_stdout = thread::spawn(move || {
            let _ = io::copy(&mut reader, &mut io::sink());
        });
        Ok(DaemonChild {
            child,
            addr,
            drain_stdout: Some(drain_stdout),
        })
    }

    /// The control address.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// The child's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Asks the daemon to shut down and reaps it; kills it if it has not
    /// exited within the grace period.
    pub fn stop(mut self) -> io::Result<()> {
        // The daemon may exit before its reply to `Shutdown` is read, so
        // the reply is not required: the exit status below tells whether
        // it drained and stopped cleanly.
        let asked = CtrlClient::connect(self.addr.as_str()).map(|mut c| {
            let _ = c.shutdown();
        });
        let deadline = Instant::now() + STOP_GRACE;
        let status = loop {
            if let Some(status) = self.child.try_wait()? {
                break Some(status);
            }
            if Instant::now() >= deadline {
                break None;
            }
            thread::sleep(Duration::from_millis(2));
        };
        self.reap();
        asked?;
        match status {
            Some(s) if s.success() => Ok(()),
            Some(s) => Err(io::Error::other(format!("daemon exited with {s}"))),
            None => Err(io::Error::other("daemon did not exit after shutdown")),
        }
    }

    fn reap(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(h) = self.drain_stdout.take() {
            let _ = h.join();
        }
    }
}

impl Drop for DaemonChild {
    fn drop(&mut self) {
        self.reap();
    }
}

/// A fresh site for slot 0 of a `k = 1` stream.
fn site(seed: u64) -> dwrs_core::swor::SworSite {
    swor_site(&SworConfig::new(S, 1), seed, 0)
}

fn create_stream(ctrl: &mut CtrlClient) -> Result<(), String> {
    match ctrl.create(STREAM, 1, S as u32, "swor") {
        Ok(CtrlResp::Ok { .. }) => Ok(()),
        Ok(other) => Err(format!("create refused: {other:?}")),
        Err(e) => Err(format!("create failed: {e}")),
    }
}

/// One set-up cycle: start the daemon, create the stream, attach, and get
/// the first query answered. Returns the seconds that took; tears the
/// daemon down afterwards, outside the timed part.
pub fn setup_once(seed: u64, out: &mut Outcome) -> Option<f64> {
    let t0 = Instant::now();
    let child = match DaemonChild::spawn(seed) {
        Ok(c) => c,
        Err(e) => {
            out.fail("daemon set-up: spawn", e);
            return None;
        }
    };
    let ready = (|| {
        let mut ctrl = CtrlClient::connect(child.addr()).map_err(|e| e.to_string())?;
        create_stream(&mut ctrl)?;
        let client = AttachClient::attach(
            child.addr(),
            STREAM,
            0,
            site(seed),
            &RuntimeConfig::default(),
        )
        .map_err(|e| e.to_string())?;
        let first = ctrl
            .snapshot(STREAM, LiveQueryKind::Stats, 0)
            .map_err(|e| e.to_string())?;
        let secs = t0.elapsed().as_secs_f64();
        client.finish().map_err(|e| e.to_string())?;
        let drained = ctrl.drain_stream(STREAM).map_err(|e| e.to_string())?;
        if first.items != 0 || drained.items != 0 {
            return Err(format!(
                "empty stream reported {} then {} items",
                first.items, drained.items
            ));
        }
        Ok(secs)
    })();
    let stopped = child.stop();
    match (ready, stopped) {
        (Ok(secs), Ok(())) => {
            out.check("daemon set-up", Vec::new());
            Some(secs)
        }
        (Err(e), _) => {
            out.fail("daemon set-up", e);
            None
        }
        (_, Err(e)) => {
            out.fail("daemon set-up: stop", e);
            None
        }
    }
}

/// Latencies and counters the query thread collects.
#[derive(Debug, Default)]
pub struct QueryLog {
    /// Round-trip microseconds per live-query kind, in `KINDS` order.
    pub by_kind: [Vec<f64>; 4],
    /// Round-trip microseconds of the telemetry scrapes.
    pub scrapes: Vec<f64>,
    /// Items fed before a query was sent minus the items its answer saw.
    pub lag_items: Vec<f64>,
    /// (seconds since the loop started, round-trip µs) of every live query.
    pub timeline: Vec<(f64, f64)>,
    /// Requests that failed or saw the watermark move backwards.
    pub problems: Vec<String>,
    /// Start and end of the thread's loop.
    pub span: Option<(Instant, Instant)>,
}

/// The four live-query kinds the query thread rotates over.
pub const KINDS: [LiveQueryKind; 4] = [
    LiveQueryKind::CurrentSample,
    LiveQueryKind::Stats,
    LiveQueryKind::L1Now,
    LiveQueryKind::RhhSoFar,
];

impl QueryLog {
    /// Every live-query latency, all kinds together.
    pub fn all_queries(&self) -> Vec<f64> {
        self.by_kind.iter().flatten().copied().collect()
    }
}

/// The closed-loop query thread: one request at a time over one control
/// connection, every 8th a telemetry scrape.
fn query_loop(addr: String, fed: Arc<AtomicU64>, stop: Arc<AtomicBool>) -> QueryLog {
    let mut log = QueryLog::default();
    let started = Instant::now();
    let mut ctrl = match CtrlClient::connect(addr.as_str()) {
        Ok(c) => c,
        Err(e) => {
            log.problems.push(format!("query connect: {e}"));
            return log;
        }
    };
    let mut last_items = 0u64;
    let mut round = 0usize;
    // ordering: Relaxed — a stop flag only; results come back via join.
    while !stop.load(Ordering::Relaxed) {
        // ordering: Relaxed — a progress counter read for the lag figure.
        let fed_before = fed.load(Ordering::Relaxed);
        let t = Instant::now();
        if round % 8 == 7 {
            match ctrl.metrics(0) {
                Ok(_) => log.scrapes.push(t.elapsed().as_nanos() as f64 / 1e3),
                Err(e) => log.problems.push(format!("scrape: {e}")),
            }
        } else {
            let kind = KINDS[round % KINDS.len()];
            match ctrl.snapshot(STREAM, kind, 0) {
                Ok(snap) => {
                    let us = t.elapsed().as_nanos() as f64 / 1e3;
                    log.by_kind[round % KINDS.len()].push(us);
                    log.timeline
                        .push((t.duration_since(started).as_secs_f64(), us));
                    log.lag_items.push(fed_before as f64 - snap.items as f64);
                    if snap.items < last_items {
                        log.problems.push(format!(
                            "watermark moved backwards: {} after {last_items}",
                            snap.items
                        ));
                    }
                    last_items = snap.items;
                }
                Err(e) => log.problems.push(format!("{}: {e}", kind.name())),
            }
        }
        round += 1;
        thread::sleep(QUERY_THINK);
    }
    log.span = Some((started, Instant::now()));
    log
}

/// Everything one live session measured.
#[derive(Debug, Default)]
pub struct Session {
    /// Items fed.
    pub fed: u64,
    /// Seconds from the first feed to the last feed returning.
    pub feed_s: f64,
    /// Seconds spent inside `AttachClient::feed`.
    pub feed_call_s: f64,
    /// `AttachClient::attach` milliseconds.
    pub attach_ms: f64,
    /// `AttachClient::finish` milliseconds.
    pub finish_ms: f64,
    /// `CtrlClient::drain_stream` milliseconds.
    pub drain_ms: f64,
    /// Largest lateness of the open-loop writer, in milliseconds.
    pub gen_lag_ms_max: f64,
    /// The query thread's log.
    pub queries: QueryLog,
    /// Up + down messages of the drained stream.
    pub msgs: u64,
    /// The daemon's CPU and context switches over its life.
    pub usage: sys::Usage,
    /// The daemon's syscall counters from attach to drain.
    pub io: sys::Io,
    /// The daemon's peak RSS in bytes.
    pub peak_rss_bytes: u64,
}

/// Runs one live session: start a daemon, feed `items` open-loop at
/// `rate` items/s while the query thread runs, then finish, check and
/// drain. Failed operations are counted in `out`.
pub fn session(
    items: impl Iterator<Item = Item>,
    n: u64,
    rate: u64,
    seed: u64,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Option<Session> {
    let usage0 = sys::usage_children();
    let child = match tracer.span("daemon.spawn", |_| DaemonChild::spawn(seed)) {
        Ok(c) => c,
        Err(e) => {
            out.fail("daemon spawn", e);
            return None;
        }
    };
    let result = drive(&child, items, n, rate, seed, tracer, out);
    let peak = sys::peak_rss_bytes(Some(child.pid()));
    let stopped = tracer.span("daemon.stop", |_| child.stop());
    let usage = sys::usage_children().since(&usage0);
    let mut sess = result?;
    match (stopped, peak) {
        (Ok(()), Ok(peak)) => {
            out.check("daemon stop", Vec::new());
            sess.peak_rss_bytes = peak;
        }
        (Err(e), _) => {
            out.fail("daemon stop", e);
            return None;
        }
        (_, Err(e)) => {
            out.fail("daemon peak rss", e);
            return None;
        }
    }
    sess.usage = usage;
    Some(sess)
}

fn drive(
    child: &DaemonChild,
    mut items: impl Iterator<Item = Item>,
    n: u64,
    rate: u64,
    seed: u64,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Option<Session> {
    let mut sess = Session::default();
    let mut ctrl = match CtrlClient::connect(child.addr()) {
        Ok(c) => c,
        Err(e) => {
            out.fail("ctrl connect", e);
            return None;
        }
    };
    if let Err(e) = create_stream(&mut ctrl) {
        out.fail("create stream", e);
        return None;
    }
    let io0 = sys::io(Some(child.pid())).unwrap_or_default();
    let t = Instant::now();
    let attached = tracer.span("daemon.attach", |_| {
        AttachClient::attach(
            child.addr(),
            STREAM,
            0,
            site(seed),
            &RuntimeConfig::default(),
        )
    });
    sess.attach_ms = t.elapsed().as_secs_f64() * 1e3;
    let mut client = match attached {
        Ok(c) => c,
        Err(e) => {
            out.fail("attach", e);
            return None;
        }
    };

    let fed = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let query_thread = {
        let (addr, fed, stop) = (
            child.addr().to_string(),
            Arc::clone(&fed),
            Arc::clone(&stop),
        );
        thread::spawn(move || query_loop(addr, fed, stop))
    };

    // The open-loop writer: item i is due at i / rate seconds; a late
    // writer sends what is due at once and records how late it ran.
    tracer.enter("daemon.feed");
    let mut buf: Vec<Item> = Vec::with_capacity(FEED_CHUNK as usize);
    let (mut sent, mut feed_errors) = (0u64, 0u64);
    let mut feed_call = Duration::ZERO;
    let start = Instant::now();
    while sent < n {
        let now = start.elapsed().as_secs_f64();
        let due = ((now * rate as f64) as u64).min(n);
        if due <= sent {
            let next = (sent + FEED_CHUNK).min(n) as f64 / rate as f64;
            let wait = (next - now).clamp(50e-6, 2e-3);
            thread::sleep(Duration::from_secs_f64(wait));
            continue;
        }
        let late_ms = (now - sent as f64 / rate as f64) * 1e3;
        sess.gen_lag_ms_max = sess.gen_lag_ms_max.max(late_ms);
        let take = (due - sent).min(FEED_CHUNK);
        buf.clear();
        buf.extend(items.by_ref().take(take as usize));
        let got = buf.len() as u64;
        let tf = Instant::now();
        let res = client.feed(buf.drain(..));
        feed_call += tf.elapsed();
        if let Err(e) = res {
            feed_errors += 1;
            out.fail("feed", e);
            break;
        }
        sent += got;
        // ordering: Relaxed — a progress counter for the lag figure.
        fed.store(sent, Ordering::Relaxed);
        if got < take {
            break;
        }
    }
    sess.feed_s = start.elapsed().as_secs_f64();
    tracer.exit();
    sess.fed = sent;
    sess.feed_call_s = feed_call.as_secs_f64();
    let chunks = sent.div_ceil(FEED_CHUNK);
    out.attempted += chunks.saturating_sub(feed_errors);

    let t = Instant::now();
    let finished = tracer.span("daemon.finish", |_| client.finish());
    sess.finish_ms = t.elapsed().as_secs_f64() * 1e3;
    // ordering: Relaxed — a stop flag only; the log comes back via join.
    stop.store(true, Ordering::Relaxed);
    let log = match query_thread.join() {
        Ok(log) => log,
        Err(_) => {
            out.fail("query thread", "panicked");
            QueryLog::default()
        }
    };
    if let Some((a, b)) = log.span {
        tracer.record("ctrl", tracer.ns_at(a), tracer.ns_at(b));
    }
    if let Err(e) = finished {
        out.fail("finish", e);
        return None;
    }
    let answered = log.all_queries().len() as u64 + log.scrapes.len() as u64;
    out.attempted += answered;
    for p in &log.problems {
        out.fail("live query", p);
    }
    sess.queries = log;

    let fin = ctrl.snapshot(STREAM, LiveQueryKind::CurrentSample, 0);
    let t = Instant::now();
    let drained = tracer.span("daemon.drain", |_| ctrl.drain_stream(STREAM));
    sess.drain_ms = t.elapsed().as_secs_f64() * 1e3;
    sess.io = sys::io(Some(child.pid())).unwrap_or_default().since(&io0);
    let (fin, drained) = match (fin, drained) {
        (Ok(f), Ok(d)) => (f, d),
        (Err(e), _) | (_, Err(e)) => {
            out.fail("final query / drain", e);
            return None;
        }
    };
    out.check("drain", drain_problems(sent, &fin, &drained));
    sess.msgs = drained.up_msgs + drained.down_msgs;
    Some(sess)
}

/// The drain gate: every fed item was delivered, the final live query
/// agrees with the drain, and the sample is full and above its threshold.
fn drain_problems(fed: u64, fin: &LiveSnapshot, drained: &LiveSnapshot) -> Vec<String> {
    let mut v = Vec::new();
    if drained.items != fed {
        v.push(format!("drained {} items, fed {fed}", drained.items));
    }
    if fin.items != drained.items {
        v.push(format!(
            "final query saw {} items, drain {}",
            fin.items, drained.items
        ));
    }
    if key_bits(&fin.sample) != key_bits(&drained.sample) {
        v.push("final query sample differs from the drained sample".into());
    }
    let want = (S as u64).min(fed) as usize;
    if drained.sample.len() != want {
        v.push(format!(
            "drained sample holds {} entries, want {want}",
            drained.sample.len()
        ));
    }
    if drained.sample.iter().any(|kd| kd.key < drained.u) {
        v.push(format!("a sampled key is below u = {:e}", drained.u));
    }
    v
}
