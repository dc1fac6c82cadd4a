//! One benchmark invocation: the lockstep reference, then either the
//! untraced end-to-end measurement or the traced per-layer breakdown.

use std::time::{Duration, Instant};

use dwrs_runtime::{run_scenario, Query, Scenario, Topology};

use crate::daemon::{self, Session};
use crate::engine::{self, EngineOnly};
use crate::probes::{self, Nodes, SiteKind};
use crate::stats::{median, quantile};
use crate::sys;
use crate::trace::Tracer;
use crate::workload::{
    daemon_items, feed_seconds, Kind, Outcome, PinTable, Pinned, Spec, CANON_N, CANON_SEED,
    DAEMON_RATE,
};

/// What one invocation was asked to do.
#[derive(Clone, Debug)]
pub struct Opts {
    /// The workload.
    pub spec: Spec,
    /// Seed every input derives from.
    pub seed: u64,
    /// Measurement time.
    pub seconds: f64,
    /// Per-layer breakdown instead of end-to-end metrics.
    pub trace: bool,
    /// Tiny inputs: every workload in about a second.
    pub smoke: bool,
    /// Fail the first correctness check on purpose.
    pub inject_failure: bool,
}

/// Where traced runs write their spans, relative to the checkout root.
const TRACE_DIR: &str = ".bench_build/perfbench-traces";

/// Input sizes of one invocation.
struct Sizes {
    /// Items per timed engine repeat.
    n: u64,
    /// Items the per-layer probes use.
    probe_n: u64,
    /// Set-up repetitions whose median is `setup_s`.
    setup_reps: usize,
    /// Least number of timed repeats.
    min_runs: usize,
}

impl Sizes {
    fn of(opts: &Opts) -> Sizes {
        let setup_reps = match (opts.smoke, opts.spec.kind) {
            (true, _) => 3,
            (false, Kind::Daemon) => 15,
            (false, _) => 51,
        };
        if opts.smoke {
            Sizes {
                n: 100_000,
                probe_n: 50_000,
                setup_reps,
                min_runs: 3,
            }
        } else {
            Sizes {
                n: opts.spec.n,
                probe_n: 1_000_000,
                setup_reps,
                min_runs: 5,
            }
        }
    }
}

/// Runs one invocation and returns everything it measured and checked.
pub fn run(opts: &Opts, pins: &PinTable) -> Outcome {
    let mut out = Outcome {
        inject_failure: opts.inject_failure,
        ..Outcome::default()
    };
    let mut tracer = Tracer::new(opts.trace);
    let sizes = Sizes::of(opts);
    let spec = opts.spec;
    out.say(format!(
        "perfbench {} seed {} seconds {} trace {} smoke {}",
        spec.name,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        u8::from(opts.smoke)
    ));
    out.say(format!(
        "machine: {} CPUs available",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    ));
    tracer.enter("run");

    // The denominator of msg_ratio_vs_lockstep: the identical stream on
    // the lockstep simulator, once per invocation, outside the timed part.
    let ref_n = match spec.kind {
        Kind::Daemon if opts.trace => daemon_items(opts.seconds * 0.3),
        Kind::Daemon => daemon_items(feed_seconds(opts.seconds)),
        _ => sizes.n,
    };
    let lockstep = tracer.span("lockstep", |_| {
        check_canonical_pin(&spec, pins, &mut out);
        lockstep_reference(&spec, ref_n, opts.seed, pins, &mut out)
    });

    if opts.trace {
        traced(opts, &sizes, lockstep, &mut tracer, &mut out);
    } else {
        untraced(opts, &sizes, lockstep, &mut out);
    }
    tracer.exit();
    if opts.trace {
        let self_ms = tracer.self_ms();
        for name in SELF_TIME_SPANS {
            let ms = self_ms.get(name).copied().unwrap_or(0.0);
            out.metric(&format!("self_ms.{name}"), ms, "ms");
        }
        write_trace(opts, &tracer, &mut out);
    }
    let frac = out.failed as f64 / out.attempted.max(1) as f64;
    out.say(format!(
        "failed_frac {frac} ({} of {} operations)",
        out.failed, out.attempted
    ));
    out
}

/// Spans whose self time the traced run reports, by name (0 when a
/// workload has no such span, so every run prints the same metrics).
const SELF_TIME_SPANS: [&str; 22] = [
    "run",
    "lockstep",
    "run_scenario",
    "record",
    "source",
    "partition",
    "scenario",
    "engine",
    "epoll",
    "observe",
    "l1site",
    "coordinator",
    "codec.encode",
    "codec.decode",
    "merge",
    "daemon.spawn",
    "daemon.attach",
    "daemon.feed",
    "daemon.finish",
    "daemon.drain",
    "daemon.stop",
    "ctrl",
];

/// The lockstep reference count for this invocation's stream.
struct Lockstep {
    items: u64,
    msgs: u64,
    secs: f64,
}

fn lockstep_count(spec: &Spec, n: u64, seed: u64) -> Result<(Pinned, f64), String> {
    let t = Instant::now();
    let rep = run_scenario(&spec.lockstep(n, seed)).map_err(|e| e.to_string())?;
    let problems = engine::report_problems(&rep, n);
    if !problems.is_empty() {
        return Err(problems.join("; "));
    }
    let pinned = Pinned {
        up: rep.metrics.up_total,
        down: rep.metrics.down_total,
    };
    Ok((pinned, t.elapsed().as_secs_f64()))
}

/// Every invocation re-derives one pinned count, whatever its seed, so a
/// protocol change cannot silently move the denominator.
fn check_canonical_pin(spec: &Spec, pins: &PinTable, out: &mut Outcome) {
    let key = (spec.name.to_string(), CANON_SEED, CANON_N);
    match (lockstep_count(spec, CANON_N, CANON_SEED), pins.get(&key)) {
        (Err(e), _) => out.fail("canonical lockstep run", e),
        (Ok(_), None) => out.fail(
            "canonical lockstep pin",
            format!(
                "no pinned count for {} seed {CANON_SEED} n {CANON_N}",
                spec.name
            ),
        ),
        (Ok((got, _)), Some(want)) => {
            let problems = pin_problems(spec, CANON_SEED, CANON_N, got, *want);
            out.check("canonical lockstep pin", problems);
        }
    }
}

/// A loud complaint when a lockstep count differs from its pin.
fn pin_problems(spec: &Spec, seed: u64, n: u64, got: Pinned, want: Pinned) -> Vec<String> {
    if got == want {
        return Vec::new();
    }
    vec![format!(
        "LOCKSTEP REFERENCE MOVED: {} seed {seed} n {n} gave up {} down {}, pinned up {} down {}",
        spec.name, got.up, got.down, want.up, want.down
    )]
}

fn lockstep_reference(
    spec: &Spec,
    n: u64,
    seed: u64,
    pins: &PinTable,
    out: &mut Outcome,
) -> Option<Lockstep> {
    let (got, secs) = match lockstep_count(spec, n, seed) {
        Ok(x) => x,
        Err(e) => {
            out.fail("lockstep reference", e);
            return None;
        }
    };
    let pin = pins.get(&(spec.name.to_string(), seed, n));
    let problems = pin.map_or(Vec::new(), |want| pin_problems(spec, seed, n, got, *want));
    out.say(format!(
        "lockstep reference: {} msgs (up {} + down {}) for {n} items [{}]",
        got.up + got.down,
        got.up,
        got.down,
        if pin.is_some() {
            "pinned"
        } else {
            "not pinned for this seed"
        }
    ));
    out.check("lockstep reference", problems)
        .then_some(Lockstep {
            items: n,
            msgs: got.up + got.down,
            secs,
        })
}

/// Median of `f` over the set-up repetitions: engines run the scenario
/// with an empty stream; the daemon is started, a stream created and
/// attached, and its first query answered.
fn setup_seconds(opts: &Opts, reps: usize, out: &mut Outcome) -> f64 {
    let mut secs = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = match opts.spec.kind {
            Kind::Daemon => daemon::setup_once(opts.seed, out),
            _ => engine::checked_run(&opts.spec.scenario(0, opts.seed), "empty run", out)
                .map(|(_, wall)| wall),
        };
        secs.extend(t);
    }
    median(&secs)
}

fn untraced(opts: &Opts, sizes: &Sizes, lockstep: Option<Lockstep>, out: &mut Outcome) {
    let ref_msgs = lockstep.as_ref().map_or(f64::NAN, |l| l.msgs as f64);
    let setup_s = setup_seconds(opts, sizes.setup_reps, out);
    out.metric("setup_s", setup_s, "s");
    let budget = Duration::from_secs_f64(opts.seconds);
    if opts.spec.kind == Kind::Daemon {
        let n = lockstep.as_ref().map_or(0, |l| l.items);
        let sc = opts.spec.scenario(n, opts.seed);
        let Some(sess) = run_session(&sc, n, &mut Tracer::new(false), out) else {
            return;
        };
        let mitems = sess.fed as f64 / 1e6;
        let queries = sess.queries.all_queries();
        out.metric("items_per_s", sess.fed as f64 / sess.feed_s, "items/s");
        out.metric(
            "msg_ratio_vs_lockstep",
            sess.msgs as f64 / ref_msgs,
            "ratio",
        );
        out.metric("cpu_s_per_mitem", sess.usage.cpu_s / mitems, "s/Mitem");
        out.metric("peak_rss_mb", sess.peak_rss_bytes as f64 / MIB, "MiB");
        out.metric("query_p50_us", quantile(&queries, 0.5), "us");
        let mut windows: Vec<Vec<f64>> = Vec::new();
        for &(at, us) in &sess.queries.timeline {
            let w = at as usize;
            windows.resize_with(windows.len().max(w + 1), Vec::new);
            windows[w].push(us);
        }
        let per_s: Vec<String> = windows
            .iter()
            .map(|w| format!("{:.0}", quantile(w, 0.99)))
            .collect();
        out.say(format!("query p99 per second (us): {}", per_s.join(" ")));
        out.say(format!(
            "query p50 {:.1} p90 {:.1} p99 {:.1} us over {} queries",
            quantile(&queries, 0.5),
            quantile(&queries, 0.9),
            quantile(&queries, 0.99),
            queries.len()
        ));
        out.say(format!(
            "daemon-live: fed {} items in {:.3} s (target {DAEMON_RATE}/s), {} live queries, \
             {} scrapes, generator lag max {:.3} ms",
            sess.fed,
            sess.feed_s,
            queries.len(),
            sess.queries.scrapes.len(),
            sess.gen_lag_ms_max
        ));
        return;
    }
    let sc = opts.spec.scenario(sizes.n, opts.seed);
    let reps = engine::repeats(&sc, budget, sizes.min_runs, &mut Tracer::new(false), out);
    let col =
        |f: &dyn Fn(&engine::Repeat) -> f64| -> Vec<f64> { reps.runs.iter().map(f).collect() };
    let ips = col(&|r| r.items_per_s);
    let ratio = col(&|r| r.msgs as f64 / ref_msgs);
    let cpu = col(&|r| r.cpu_s / (sizes.n as f64 / 1e6));
    let rss = col(&|r| r.peak_rss_bytes as f64 / MIB);
    out.metric("items_per_s", median(&ips), "items/s");
    out.metric("msg_ratio_vs_lockstep", median(&ratio), "ratio");
    out.metric("cpu_s_per_mitem", median(&cpu), "s/Mitem");
    out.metric("peak_rss_mb", median(&rss), "MiB");
    out.metric("query_p50_us", quantile(&reps.query_us, 0.5), "us");
    out.say(format!(
        "query p50 {:.3} p90 {:.3} p99 {:.3} us over {} calls",
        quantile(&reps.query_us, 0.5),
        quantile(&reps.query_us, 0.9),
        quantile(&reps.query_us, 0.99),
        reps.query_us.len()
    ));
    out.say(format!(
        "{} repeats of {} items; query latency over {} RunReport::live_snapshot calls",
        reps.runs.len(),
        sizes.n,
        reps.query_us.len()
    ));
    out.say("repeat items_per_s msg_ratio_vs_lockstep cpu_s_per_mitem peak_rss_mb".into());
    for (i, r) in reps.runs.iter().enumerate() {
        out.say(format!(
            "{i:>6} {:.0} {:.4} {:.4} {:.2}",
            r.items_per_s, ratio[i], cpu[i], rss[i]
        ));
    }
}

const MIB: f64 = 1024.0 * 1024.0;

/// A live session over `sc`'s first `n` items on a `k = 1` daemon stream.
fn run_session(sc: &Scenario, n: u64, tracer: &mut Tracer, out: &mut Outcome) -> Option<Session> {
    let items = match sc.source() {
        Ok(src) => src,
        Err(e) => {
            out.fail("daemon item source", e);
            return None;
        }
    };
    daemon::session(items, n, DAEMON_RATE, sc.seed, tracer, out)
}

fn traced(
    opts: &Opts,
    sizes: &Sizes,
    lockstep: Option<Lockstep>,
    tracer: &mut Tracer,
    out: &mut Outcome,
) {
    let spec = opts.spec;
    if let Some(l) = &lockstep {
        out.metric("lockstep.items_per_s", l.items as f64 / l.secs, "items/s");
        out.metric(
            "lockstep.msgs_per_kitem",
            l.msgs as f64 * 1e3 / l.items as f64,
            "count",
        );
    }

    // The workload's own end-to-end call, under spans.
    let mut session = None;
    if spec.kind == Kind::Daemon {
        let n = lockstep.as_ref().map_or(0, |l| l.items);
        let sc = spec.scenario(n, opts.seed);
        session = tracer.span("e2e", |t| run_session(&sc, n, t, out));
        if let Some(s) = &session {
            out.metric("traced.items_per_s", s.fed as f64 / s.feed_s, "items/s");
            let queries = s.queries.all_queries();
            out.metric("query_p90_us", quantile(&queries, 0.9), "us");
            out.metric("query_p99_us", quantile(&queries, 0.99), "us");
            proc_metrics(&s.io, s.usage.ctx_switches, s.fed, out);
        }
    } else {
        let sc = spec.scenario(sizes.n, opts.seed);
        let budget = Duration::from_secs_f64(opts.seconds * 0.25);
        let reps = tracer.span("e2e", |t| engine::repeats(&sc, budget, 3, t, out));
        let ips: Vec<f64> = reps.runs.iter().map(|r| r.items_per_s).collect();
        out.metric("traced.items_per_s", median(&ips), "items/s");
        out.metric("query_p90_us", quantile(&reps.query_us, 0.9), "us");
        out.metric("query_p99_us", quantile(&reps.query_us, 0.99), "us");
        proc_metrics(&reps.io, reps.ctx_switches, reps.items, out);
    }

    // Layer probes over the workload's first probe_n items.
    let sc = spec.scenario(sizes.probe_n, opts.seed);
    probe_layers(&sc, tracer, out);

    // The daemon layers: from the live session on daemon-live, else from a
    // short session fed this workload's items.
    if spec.kind != Kind::Daemon {
        let n = daemon_items(opts.seconds * 0.15);
        let dsc = Spec {
            kind: Kind::Daemon,
            k: 1,
            query: Query::Swor,
            ..spec
        }
        .scenario(n, opts.seed);
        session = tracer.span("daemon", |t| run_session(&dsc, n, t, out));
    }
    if let Some(s) = &session {
        daemon_metrics(s, out);
    }
    let spans = tracer.len() as f64;
    let cost = span_cost_ns();
    let wall_ns = tracer.now_ns() as f64;
    out.metric("trace.spans", spans, "count");
    out.metric("trace.overhead_frac", spans * cost / wall_ns, "ratio");
}

/// Nanoseconds one enter/exit pair costs the tracer.
fn span_cost_ns() -> f64 {
    let mut t = Tracer::new(true);
    probes::ns_per_unit(|| {
        for _ in 0..1000 {
            t.enter("x");
            t.exit();
        }
        1000
    })
}

fn proc_metrics(io: &sys::Io, ctx_switches: u64, items: u64, out: &mut Outcome) {
    let kitems = items.max(1) as f64 / 1e3;
    out.metric(
        "proc.syscalls_per_kitem",
        io.syscalls() as f64 / kitems,
        "count",
    );
    out.metric("proc.bytes_per_syscall", io.bytes_per_syscall(), "bytes");
    out.metric(
        "proc.ctx_switches_per_kitem",
        ctx_switches as f64 / kitems,
        "count",
    );
}

fn daemon_metrics(s: &Session, out: &mut Outcome) {
    let q = &s.queries;
    out.metric("daemon.attach_ms", s.attach_ms, "ms");
    out.metric(
        "daemon.feed_ns_per_item",
        s.feed_call_s * 1e9 / s.fed.max(1) as f64,
        "ns",
    );
    out.metric("daemon.finish_ms", s.finish_ms, "ms");
    out.metric("daemon.drain_ms", s.drain_ms, "ms");
    out.metric(
        "daemon.watermark_lag_items_p50",
        median(&q.lag_items),
        "items",
    );
    for (i, name) in [
        "ctrl.current_sample_p50_us",
        "ctrl.stats_p50_us",
        "ctrl.l1_now_p50_us",
        "ctrl.rhh_so_far_p50_us",
    ]
    .into_iter()
    .enumerate()
    {
        out.metric(name, median(&q.by_kind[i]), "us");
    }
    out.metric("telemetry.scrape_p50_us", median(&q.scrapes), "us");
    out.metric("load.gen_lag_ms_max", s.gen_lag_ms_max, "ms");
    out.say(format!(
        "daemon session: {} items, {} live queries, {} scrapes",
        s.fed,
        q.all_queries().len(),
        q.scrapes.len()
    ));
}

/// Times one public call per layer over the probe input.
fn probe_layers(sc: &Scenario, tracer: &mut Tracer, out: &mut Outcome) {
    let n = sc.n;
    let own = match sc.query {
        Query::L1 { .. } => SiteKind::L1,
        _ => SiteKind::Swor,
    };
    let flat = sc.clone().with_topology(Topology::Flat);

    // workloads::source
    let t = Instant::now();
    let drained = tracer.span("source", |_| sc.source().map(|src| src.count()));
    match drained {
        Ok(count) => {
            out.check(
                "source",
                (count as u64 != n)
                    .then(|| format!("{count} items"))
                    .into_iter()
                    .collect(),
            );
            out.metric(
                "source.ns_per_item",
                t.elapsed().as_nanos() as f64 / n as f64,
                "ns",
            );
        }
        Err(e) => out.fail("source", e),
    }

    // The dispatcher inside run_scenario: its time minus the same engine's over
    // pre-partitioned input.
    let parts = match tracer.span("partition", |_| engine::partition(sc)) {
        Ok(p) => p,
        Err(e) => {
            out.fail("partition", e);
            return;
        }
    };
    let scenario = tracer.span("scenario", |_| {
        engine::checked_run(sc, "probe run_scenario", out)
    });
    if let Some((rep, _)) = &scenario {
        let d = rep.dispatcher.unwrap_or_default();
        out.metric(
            "dispatch.peak_in_flight_frames",
            d.peak_in_flight_frames as f64,
            "count",
        );
        out.metric("tree.syncs", rep.syncs() as f64, "count");
        out.metric(
            "tree.sync_msgs_per_kitem",
            rep.metrics.kind("sync") as f64 * 1e3 / n as f64,
            "count",
        );
    }
    let own_engine = EngineOnly::of(sc);
    let engine_run = tracer.span("engine", |_| {
        engine::engine_only(sc, own_engine, own, parts.clone())
    });
    match (&engine_run, &scenario) {
        (Ok((secs, sample)), Some((rep, scn_secs))) => {
            let size_ok = sample.len() == rep.s;
            out.check(
                "engine-only run",
                (!size_ok)
                    .then(|| format!("sample holds {}", sample.len()))
                    .into_iter()
                    .collect(),
            );
            out.metric("engine.items_per_s", n as f64 / secs, "items/s");
            out.metric(
                "dispatch.ns_per_item",
                (scn_secs - secs) * 1e9 / n as f64,
                "ns",
            );
        }
        (Err(e), _) => out.fail("engine-only run", e),
        _ => {}
    }

    // epoll + reactor
    let epoll_secs = if own_engine == EngineOnly::Epoll {
        engine_run.as_ref().ok().map(|(s, _)| *s)
    } else {
        match tracer.span("epoll", |_| {
            engine::engine_only(&flat, EngineOnly::Epoll, own, parts)
        }) {
            Ok((secs, sample)) => {
                let ok = sample.len() == flat.query.sample_size(flat.s);
                out.check(
                    "epoll run",
                    (!ok)
                        .then(|| format!("sample holds {}", sample.len()))
                        .into_iter()
                        .collect(),
                );
                Some(secs)
            }
            Err(e) => {
                out.fail("epoll run", e);
                None
            }
        }
    };
    if let Some(secs) = epoll_secs {
        out.metric("epoll.items_per_s", n as f64 / secs, "items/s");
    }

    // Protocol layers, from recorded lockstep executions: the workload's
    // own, and a flat one of the other site protocol.
    let other = match own {
        SiteKind::Swor => SiteKind::L1,
        SiteKind::L1 => SiteKind::Swor,
    };
    let rec_own = tracer.span("record", |_| probes::record(sc, own));
    let rec_other = tracer.span("record", |_| probes::record(&flat, other));
    let (rec_own, rec_other) = match (rec_own, rec_other) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            out.fail("lockstep recording", e);
            return;
        }
    };
    if let Some(total) = scenario_lockstep_total(sc) {
        out.check(
            "recording matches run_scenario lockstep",
            (total != rec_own.msgs)
                .then(|| format!("recorded {} msgs, run_scenario {total}", rec_own.msgs))
                .into_iter()
                .collect(),
        );
    }
    let nodes_own = Nodes::new(sc, own);
    let nodes_other = Nodes::new(&flat, other);
    let (swor, l1) = match own {
        SiteKind::Swor => ((&rec_own, &nodes_own), (&rec_other, &nodes_other)),
        SiteKind::L1 => ((&rec_other, &nodes_other), (&rec_own, &nodes_own)),
    };
    let (ns, problems) = tracer.span("observe", |_| probes::replay_site(swor.0, swor.1));
    out.check("observe replay", problems);
    out.metric("observe.ns_per_item", ns, "ns");
    let (ns, problems) = tracer.span("l1site", |_| probes::replay_site(l1.0, l1.1));
    out.check("l1site replay", problems);
    out.metric("l1site.ns_per_item", ns, "ns");
    let (ns, problems) = tracer.span("coordinator", |_| {
        probes::replay_coordinators(&rec_own, &nodes_own)
    });
    out.check("coordinator replay", problems);
    out.metric("coordinator.ns_per_msg", ns, "ns");
    let (codec, problems) = probes::codec(&rec_own, tracer);
    out.check("codec round trip", problems);
    out.metric("codec.encode_ns_per_msg", codec.encode_ns, "ns");
    out.metric("codec.decode_ns_per_msg", codec.decode_ns, "ns");
    out.metric("codec.bytes_per_msg", codec.bytes_per_msg, "bytes");
    match tracer.span("merge", |_| probes::merge(sc, &rec_own)) {
        Ok((ns, problems)) => {
            out.check("merge", problems);
            out.metric("merge.ns_per_entry", ns, "ns");
        }
        Err(e) => out.fail("merge", e),
    }
}

/// The lockstep message total `run_scenario` reports for `sc`.
fn scenario_lockstep_total(sc: &Scenario) -> Option<u64> {
    let mut ls = sc.clone();
    ls.engine = dwrs_runtime::EngineKind::Lockstep;
    run_scenario(&ls).ok().map(|r| r.metrics.total())
}

fn write_trace(opts: &Opts, tracer: &Tracer, out: &mut Outcome) {
    let dir = std::path::Path::new(TRACE_DIR);
    let path = dir.join(format!("{}-seed{}.json", opts.spec.name, opts.seed));
    let res = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, tracer.to_json()));
    match res {
        Ok(()) => out.say(format!("spans written to {}", path.display())),
        Err(e) => out.fail("write trace", e),
    }
}
