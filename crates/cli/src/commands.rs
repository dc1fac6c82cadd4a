//! Subcommand implementations.

use std::io::Write;

use dwrs_apps::l1::{
    run_tracker, FolkloreTracker, HyzTracker, L1Config, L1DupTracker, L1Estimator,
    PiggybackL1Tracker,
};
use dwrs_apps::residual_hh::{
    exact_residual_heavy_hitters, recall, ResidualHeavyHitters, ResidualHhConfig,
};
use dwrs_apps::L1Site;
use dwrs_core::ctrl::{CtrlMsg, CtrlResp, LiveQueryKind, LiveSnapshot, MetricsReport};
use dwrs_core::framed::FrameCodec;
use dwrs_core::swor::SworConfig;
use dwrs_core::Item;
use dwrs_runtime::daemon::{AttachClient, CtrlClient, Daemon, DaemonConfig};
use dwrs_runtime::query::l1_site_seed;
use dwrs_runtime::{
    run_scenario, EngineKind, Query, QueryAnswer, RunReport, RuntimeConfig, Scenario, Topology,
    Workload,
};
use dwrs_sim::SiteNode;
use dwrs_sim::{assign_sites, build_swor, swor_site, Partition};
use dwrs_stats::QuantileSketch;
use dwrs_telemetry::{event_name, render_json, render_prometheus, HISTOGRAM_EPS};
use dwrs_workloads as workloads;

use crate::args::{ArgError, Parsed, COMMAND_FLAGS};

/// Runs the parsed command, writing output to `out`. A flag the command
/// does not accept (see `COMMAND_FLAGS`) fails before any work is done.
pub fn dispatch<W: Write>(p: &Parsed, out: &mut W) -> Result<(), ArgError> {
    let command: fn(&Parsed, &mut W) -> Result<(), ArgError> = match p.command.as_str() {
        "sample" => cmd_sample,
        "run" => cmd_run,
        "daemon" => cmd_daemon,
        "attach" => cmd_attach,
        "query" => cmd_query,
        "metrics" => cmd_metrics,
        "top" => cmd_top,
        "load" => cmd_load,
        "workload" => cmd_workload,
        "track-l1" => cmd_track_l1,
        "residual-hh" => cmd_residual_hh,
        "help" | "usage" => |_, out| {
            writeln!(out, "{}", crate::args::USAGE).ok();
            Ok(())
        },
        other => return Err(ArgError(format!("unknown command '{other}'"))),
    };
    // A command missing from the table takes no flags.
    let accepted = COMMAND_FLAGS.iter().find(|(c, _)| *c == p.command);
    p.check_flags(accepted.map_or("", |(_, flags)| flags))?;
    command(p, out)
}

/// Materializes a workload from a `kind[:params]` spec — the vec-backed
/// adapter over the streaming [`Workload`] sources, for the commands that
/// genuinely need the whole stream in memory (`sample`'s lockstep-latency
/// mode). Everything else streams.
pub fn make_workload(kind: &str, n: usize, seed: u64) -> Result<Vec<Item>, ArgError> {
    let workload = Workload::parse(kind).map_err(ArgError)?;
    // `zipf` resolves to the exact rank permutation (each rank appears
    // exactly once), preserving the `sample` command's historical output
    // for a given seed; `zipf_iid` is the streaming i.i.d.-rank variant.
    let source = workload
        .source(n as u64, seed)
        .map_err(|e| ArgError(e.to_string()))?;
    Ok(source.collect())
}

/// Parses a partition spec.
pub fn make_partition(spec: &str) -> Result<Partition, ArgError> {
    let (name, param) = match spec.split_once(':') {
        Some((a, b)) => (a, b),
        None => (spec, ""),
    };
    Ok(match name {
        "roundrobin" => Partition::RoundRobin,
        "random" => Partition::Random,
        "single" => Partition::SingleSite(
            param
                .parse()
                .map_err(|_| ArgError(format!("bad site index '{param}'")))?,
        ),
        "skewed" => Partition::Skewed {
            hot: param
                .parse()
                .map_err(|_| ArgError(format!("bad hot fraction '{param}'")))?,
        },
        other => return Err(ArgError(format!("unknown partition '{other}'"))),
    })
}

/// The `--partition` flag for `k` sites.
fn partition_flag(p: &Parsed, k: usize) -> Result<Partition, ArgError> {
    let partition = make_partition(&p.str_or("partition", "roundrobin"))?;
    match partition {
        Partition::SingleSite(i) if i >= k => Err(ArgError(format!(
            "--partition single:{i} names a site outside --k {k}"
        ))),
        _ => Ok(partition),
    }
}

fn cmd_sample<W: Write>(p: &Parsed, out: &mut W) -> Result<(), ArgError> {
    let n = p.u64_or("n", 100_000)? as usize;
    let k = p.positive_or("k", 8)? as usize;
    let s = p.positive_or("s", 16)? as usize;
    let seed = p.u64_or("seed", 42)?;
    let latency = p.u64_or("latency", 0)?;
    let partition = partition_flag(p, k)?;
    let items = make_workload(&p.str_or("workload", "uniform:1,10"), n, seed ^ 0xA5)?;
    let total: f64 = items.iter().map(|i| i.weight).sum();

    let mut runner = if latency == 0 {
        build_swor(SworConfig::new(s, k), seed)
    } else {
        build_swor(SworConfig::new(s, k), seed).with_latency(latency)
    };
    let sites = assign_sites(partition, k, items.len(), seed ^ 0x17);
    runner.run(sites.into_iter().zip(items));

    writeln!(out, "stream: n = {n}, W = {total:.6e}, k = {k}, s = {s}").ok();
    writeln!(out, "sample (id, weight, key):").ok();
    for kd in runner.coordinator.sample() {
        writeln!(
            out,
            "  {:>12}  {:>14.4}  {:.6e}",
            kd.item.id, kd.item.weight, kd.key
        )
        .ok();
    }
    let m = &runner.metrics;
    writeln!(out, "messages: total {}", m.total()).ok();
    for (kind, count) in &m.by_kind {
        writeln!(out, "  {kind:<16} {count}").ok();
    }
    writeln!(out, "bytes on the wire: {}", m.total_bytes()).ok();
    Ok(())
}

/// Builds the [`Scenario`] shared by the engine commands (`run` and the
/// daemon's `attach` sites, which must reconstruct the identical global
/// stream) from the common flags. Engine/topology default to
/// threads/flat; `cmd_run` overrides them from its own flags.
fn make_scenario(p: &Parsed) -> Result<Scenario, ArgError> {
    let n = p.magnitude_or("n", 1_000_000)?;
    let k = p.positive_or("k", 8)? as usize;
    let seed = p.u64_or("seed", 42)?;
    let s = p.positive_or("s", 64)? as usize;
    let workload = Workload::parse(&p.str_or("workload", "zipf_iid:1.1")).map_err(ArgError)?;
    let partition = partition_flag(p, k)?;
    Ok(Scenario::new(EngineKind::Threads, k, s)
        .with_n(n)
        .with_seed(seed)
        .with_workload(workload)
        .with_partition(partition)
        .with_runtime(runtime_config(p)?))
}

/// The engine knobs: each flag defaults to the library's
/// [`RuntimeConfig::default`], so a changed default reaches `dwrs run`.
fn runtime_config(p: &Parsed) -> Result<RuntimeConfig, ArgError> {
    let d = RuntimeConfig::default();
    Ok(RuntimeConfig::new()
        .with_batch_max(p.u64_or("batch", d.batch_max as u64)? as usize)
        .with_queue_capacity(p.u64_or("queue", d.queue_capacity as u64)? as usize)
        .with_down_poll_every(p.u64_or("down-poll-every", u64::from(d.down_poll_every))? as u32))
}

/// `run`: every engine×topology combination routes through one
/// [`Scenario`] and [`run_scenario`] — the workload streams through the
/// driver's bounded dispatcher, so memory stays O(batch × queue)
/// regardless of `--n` (pass `--materialize true` to pre-build the stream
/// in memory instead, e.g. for streaming-vs-materialized comparisons).
fn cmd_run<W: Write>(p: &Parsed, out: &mut W) -> Result<(), ArgError> {
    let engine: EngineKind = p.str_or("engine", "threads").parse().map_err(ArgError)?;
    let format = p.str_or("format", "text");
    if format != "text" && format != "json" {
        return Err(ArgError(format!(
            "--format must be text or json, got '{format}'"
        )));
    }
    let mut sc = make_scenario(p)?;
    sc.engine = engine;
    sc.query = Query::parse(&p.str_or("query", "swor")).map_err(ArgError)?;
    sc.topology = match p.str_or("topology", "flat").as_str() {
        "flat" => Topology::Flat,
        "tree" => {
            let groups = p.u64_or("groups", 2)? as usize;
            let sync_every = p.magnitude_or("sync-every", 10_000)?;
            if groups == 0 {
                return Err(ArgError("--groups must be at least 1".into()));
            }
            if sync_every == 0 {
                return Err(ArgError("--sync-every must be at least 1".into()));
            }
            if !sc.k.is_multiple_of(groups) {
                return Err(ArgError(format!(
                    "--groups {groups} must divide --k {} (sites per group must be uniform)",
                    sc.k
                )));
            }
            Topology::Tree { groups, sync_every }
        }
        other => {
            return Err(ArgError(format!(
                "--topology must be flat or tree, got '{other}'"
            )))
        }
    };
    let streaming = match p.str_or("materialize", "false").as_str() {
        "false" | "no" | "0" => {
            // A streaming run of the exact zipf permutation is impossible:
            // historically `zipf` silently fell back to the i.i.d.-rank
            // stream, changing the workload distribution with the flag.
            // Refuse the ambiguous combination instead.
            if let Workload::ZipfRanked { alpha } = sc.workload {
                return Err(ArgError(format!(
                    "workload 'zipf:{alpha}' is the exact rank permutation and cannot \
                     stream; pass --materialize true to run it (O(n) memory), or use \
                     'zipf_iid:{alpha}' for the streaming i.i.d.-rank distribution"
                )));
            }
            true
        }
        "true" | "yes" | "1" => {
            // Pre-build the identical stream in memory (the pre-driver
            // execution model): generation leaves the timed window, RSS
            // grows to O(n).
            let items: Vec<Item> = sc.source().map_err(|e| ArgError(e.to_string()))?.collect();
            sc.workload = Workload::items(items);
            false
        }
        other => {
            return Err(ArgError(format!(
                "--materialize must be true or false, got '{other}'"
            )))
        }
    };
    let report = run_scenario(&sc).map_err(|e| ArgError(format!("{engine} engine failed: {e}")))?;
    print_report(&report, &sc, streaming, &format, out);
    invariant_verdict(&report.violations)
}

/// A run's exit verdict, given after its report is printed: any violated
/// invariant fails the command.
fn invariant_verdict(violations: &[String]) -> Result<(), ArgError> {
    if violations.is_empty() {
        Ok(())
    } else {
        Err(ArgError(format!(
            "invariant violations: {}",
            violations.join("; ")
        )))
    }
}

/// Prints a [`RunReport`] in the CLI's text or JSON format.
fn print_report<W: Write>(
    report: &RunReport,
    sc: &Scenario,
    streaming: bool,
    format: &str,
    out: &mut W,
) {
    let engine = report.engine;
    let (n, k, s) = (report.items, report.k, report.s);
    let elapsed_s = report.elapsed.as_secs_f64();
    let items_per_s = report.items_per_s();
    let m = &report.metrics;
    let rss = report.peak_rss_bytes.unwrap_or(0);
    // Query-specific JSON fragment, spliced into both topology shapes.
    let answer_json = match &report.answer {
        QueryAnswer::Swor => String::new(),
        QueryAnswer::L1 {
            estimate,
            true_weight,
            rel_error,
            ell,
        } => format!(
            ",\"estimate\":{estimate:.6e},\"true_weight\":{true_weight:.6e},\
             \"rel_error\":{rel_error:.6},\"ell\":{ell}"
        ),
        QueryAnswer::ResidualHh {
            candidates,
            required,
            recall,
        } => format!(
            ",\"candidates\":{},\"required\":{required},\"recall\":{recall:.4}",
            candidates.len()
        ),
        QueryAnswer::SlidingWindow { window } => format!(",\"window\":{window}"),
    };
    let query = report.query.name();
    // The per-tier `(items_processed, total_messages)` timeline snapshots
    // the lockstep runner and tree tiers record — previously dropped on
    // the floor by the JSON output.
    let timeline_json = if m.timeline.is_empty() {
        String::new()
    } else {
        let points: Vec<String> = m
            .timeline
            .iter()
            .map(|(items, msgs)| format!("[{items},{msgs}]"))
            .collect();
        format!(",\"metrics_timeline\":[{}]", points.join(","))
    };
    if format == "json" {
        match report.topology {
            Topology::Flat => writeln!(
                out,
                "{{\"engine\":\"{engine}\",\"topology\":\"flat\",\"query\":\"{query}\",\
                 \"n\":{n},\"k\":{k},\"s\":{s},\
                 \"elapsed_s\":{elapsed_s:.6},\"items_per_s\":{items_per_s:.1},\
                 \"sample_size\":{},\"messages\":{},\"up_messages\":{},\
                 \"down_messages\":{},\"stale_regular\":{},\"stale_early\":{},\
                 \"bytes\":{},\"streaming\":{streaming},\
                 \"invariants_ok\":{}{answer_json}{timeline_json},\"peak_rss_bytes\":{rss}}}",
                report.sample.len(),
                m.total(),
                m.up_total,
                m.down_total,
                report.stale_regular,
                report.stale_early,
                m.total_bytes(),
                report.invariants_ok(),
            )
            .ok(),
            Topology::Tree { groups, sync_every } => writeln!(
                out,
                "{{\"engine\":\"{engine}\",\"topology\":\"tree\",\"query\":\"{query}\",\
                 \"n\":{n},\"k\":{k},\
                 \"s\":{s},\"groups\":{groups},\"k_per_group\":{},\"sync_every\":{sync_every},\
                 \"elapsed_s\":{elapsed_s:.6},\"items_per_s\":{items_per_s:.1},\
                 \"sample_size\":{},\"messages\":{},\"up_messages\":{},\
                 \"down_messages\":{},\"stale_regular\":{},\"stale_early\":{},\
                 \"sync_messages\":{},\"syncs\":{},\"bytes\":{},\
                 \"streaming\":{streaming},\"invariants_ok\":{}{answer_json}\
                 {timeline_json},\"peak_rss_bytes\":{rss}}}",
                k / groups,
                report.sample.len(),
                m.total(),
                m.up_total,
                m.down_total,
                report.stale_regular,
                report.stale_early,
                m.kind("sync"),
                report.syncs(),
                m.total_bytes(),
                report.invariants_ok(),
            )
            .ok(),
        };
        return;
    }
    match report.topology {
        Topology::Flat => {
            writeln!(
                out,
                "engine {engine}: query = {query}, n = {n}, k = {k}, s = {s}, \
                 batch = {}, queue = {}",
                sc.runtime.batch_max, sc.runtime.queue_capacity
            )
            .ok();
        }
        Topology::Tree { groups, sync_every } => {
            writeln!(
                out,
                "engine {engine}: query = {query}, n = {n}, topology = tree \
                 ({groups} groups x {} sites), s = {s}, sync_every = {sync_every}, \
                 batch = {}, queue = {}",
                k / groups,
                sc.runtime.batch_max,
                sc.runtime.queue_capacity
            )
            .ok();
        }
    }
    match &report.answer {
        QueryAnswer::Swor => {}
        QueryAnswer::L1 {
            estimate,
            true_weight,
            rel_error,
            ell,
        } => {
            writeln!(
                out,
                "L1 estimate: W~ = {estimate:.6e} vs exact W = {true_weight:.6e} \
                 (rel error {rel_error:.4}, ell = {ell})"
            )
            .ok();
        }
        QueryAnswer::ResidualHh {
            candidates,
            required,
            recall,
        } => {
            writeln!(
                out,
                "residual heavy hitters: {} candidates, recall {recall:.3} of \
                 {required} required (exact oracle)",
                candidates.len()
            )
            .ok();
        }
        QueryAnswer::SlidingWindow { window } => {
            writeln!(out, "sliding window: last {window} arrivals sampled").ok();
        }
    }
    writeln!(out, "elapsed: {elapsed_s:.3} s  ({items_per_s:.0} items/s)").ok();
    if let Some(d) = &report.dispatcher {
        writeln!(
            out,
            "streaming dispatch: {} frames, peak {} in flight (bound {}), \
             buffered window <= {} items",
            d.frames,
            d.peak_in_flight_frames,
            d.in_flight_bound(),
            d.buffered_items_bound()
        )
        .ok();
    }
    if let Topology::Tree { .. } = report.topology {
        writeln!(
            out,
            "root syncs: {} ({} sync messages; root exact at shutdown)",
            report.syncs(),
            m.kind("sync")
        )
        .ok();
    }
    if !report.invariants_ok() {
        writeln!(
            out,
            "WARNING: invariant violations: {:?}",
            report.violations
        )
        .ok();
    }
    writeln!(out, "sample size: {}", report.sample.len()).ok();
    writeln!(out, "sample head (id, weight, key):").ok();
    for kd in report.sample.iter().take(8) {
        writeln!(
            out,
            "  {:>12}  {:>14.4}  {:.6e}",
            kd.item.id, kd.item.weight, kd.key
        )
        .ok();
    }
    writeln!(out, "messages: total {}", m.total()).ok();
    for (kind, count) in &m.by_kind {
        writeln!(out, "  {kind:<16} {count}").ok();
    }
    writeln!(
        out,
        "stale up-messages (sent from a state older than the coordinator's): \
         {} regular, {} early",
        report.stale_regular, report.stale_early
    )
    .ok();
    writeln!(out, "bytes on the wire: {}", m.total_bytes()).ok();
}

/// `daemon`: the long-lived multi-stream sampling service. Blocks until a
/// `Shutdown` control frame arrives or the process receives
/// SIGTERM/SIGINT, then reports every drained stream.
fn cmd_daemon<W: Write>(p: &Parsed, out: &mut W) -> Result<(), ArgError> {
    let listen = p.str_or("listen", "127.0.0.1:0");
    let d = DaemonConfig::default();
    let cfg = DaemonConfig {
        seed: p.u64_or("seed", d.seed)?,
        queue_capacity: p.u64_or("queue", d.queue_capacity as u64)?.max(1) as usize,
    };
    let daemon = Daemon::bind(listen.as_str(), cfg)
        .map_err(|e| ArgError(format!("cannot bind '{listen}': {e}")))?;
    writeln!(out, "daemon listening on {}", daemon.local_addr()).ok();
    writeln!(
        out,
        "create/attach/query streams with: dwrs attach | dwrs query --connect {}",
        daemon.local_addr()
    )
    .ok();
    out.flush().ok();
    let daemon = std::sync::Arc::new(daemon);
    #[cfg(unix)]
    install_signal_shutdown(std::sync::Arc::clone(&daemon));
    daemon.join();
    for (name, snap) in daemon.drained() {
        writeln!(
            out,
            "drained stream {name:?}: {} items, sample size {}, {} up msgs ({} bytes), \
             {} broadcasts",
            snap.items,
            snap.sample.len(),
            snap.up_msgs,
            snap.up_bytes,
            snap.broadcast_events
        )
        .ok();
    }
    writeln!(out, "daemon stopped").ok();
    Ok(())
}

/// Installs a SIGTERM/SIGINT handler that triggers a graceful
/// [`Daemon::shutdown`] (every stream drained with the flush → Eof →
/// drain discipline) from a watcher thread — the handler itself only sets
/// a flag, keeping it async-signal-safe.
#[cfg(unix)]
fn install_signal_shutdown(daemon: std::sync::Arc<Daemon>) {
    use std::sync::atomic::{AtomicBool, Ordering};
    static SIGNALLED: AtomicBool = AtomicBool::new(false);
    extern "C" fn on_signal(_sig: i32) {
        // ordering: SeqCst — set from async-signal context where the cost
        // is irrelevant; pairs with the SeqCst poll below and leaves no
        // doubt the flag is visible to the watcher on any architecture.
        SIGNALLED.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    // SAFETY: `on_signal` is an `extern "C" fn(i32)` matching libc's
    // sighandler_t and is async-signal-safe (a single atomic store, no
    // allocation or locking); 15/SIGTERM and 2/SIGINT are valid signal
    // numbers on every unix this builds for.
    unsafe {
        signal(15, on_signal); // SIGTERM
        signal(2, on_signal); // SIGINT
    }
    std::thread::spawn(move || loop {
        // ordering: SeqCst — matches the handler's store; this 20 Hz poll
        // is nowhere near hot enough for the fence cost to matter.
        if SIGNALLED.load(Ordering::SeqCst) {
            daemon.shutdown();
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    });
}

/// `attach`: drive one site slot of a daemon stream. Creates the stream
/// first (idempotent — an existing stream keeps its configuration), then
/// streams this site's share of the deterministic workload, filtered on
/// the fly out of the scenario's seeded source. `--eof false` detaches
/// instead of finishing, leaving the slot resumable by a later attach.
fn cmd_attach<W: Write>(p: &Parsed, out: &mut W) -> Result<(), ArgError> {
    let connect = p
        .flags
        .get("connect")
        .cloned()
        .ok_or_else(|| ArgError("attach needs --connect <addr>".into()))?;
    let stream = p
        .flags
        .get("stream")
        .cloned()
        .ok_or_else(|| ArgError("attach needs --stream <name>".into()))?;
    let site_id = p
        .flags
        .get("site")
        .ok_or_else(|| ArgError("attach needs --site <i>".into()))?
        .parse::<usize>()
        .map_err(|_| ArgError("--site expects an integer".into()))?;
    let sc = make_scenario(p)?;
    if site_id >= sc.k {
        return Err(ArgError(format!(
            "--site {site_id} out of range for k = {}",
            sc.k
        )));
    }
    let spec = p.str_or("query", "swor");
    let query = Query::parse(&spec).map_err(ArgError)?;
    let send_eof = match p.str_or("eof", "true").as_str() {
        "true" => true,
        "false" => false,
        v => return Err(ArgError(format!("--eof expects true|false, got '{v}'"))),
    };
    // Same refusal as `run`'s streaming mode: an attach process streams
    // its share of the source on the fly and must not silently
    // materialize the O(n) rank permutation (nor switch distributions).
    if let Workload::ZipfRanked { alpha } = sc.workload {
        return Err(ArgError(format!(
            "workload 'zipf:{alpha}' is the exact rank permutation and cannot stream \
             through attach; use 'zipf_iid:{alpha}'"
        )));
    }
    // The Create frame carries k and s as u32: refuse what would not fit
    // instead of truncating it into another stream's shape.
    let wire = |flag: &str, v: usize| {
        u32::try_from(v).map_err(|_| ArgError(format!("--{flag} {v} exceeds {}", u32::MAX)))
    };
    let (k, s) = (wire("k", sc.k)?, wire("s", sc.s)?);
    // Create the stream first (idempotent), over a short-lived control
    // connection.
    let mut ctrl = CtrlClient::connect(connect.as_str())
        .map_err(|e| ArgError(format!("cannot connect '{connect}': {e}")))?;
    let created = ctrl
        .request(&CtrlMsg::Create {
            stream: stream.clone(),
            k,
            s,
            query: spec.clone(),
        })
        .map_err(|e| ArgError(format!("create failed: {e}")))?;
    if let CtrlResp::Err { msg } = created {
        return Err(ArgError(format!("create refused: {msg}")));
    }
    drop(ctrl);
    // This site's share of the deterministic global stream, filtered out
    // of the scenario's streaming source on the fly — every attach process
    // reconstructs the identical stream from the shared flags.
    let mut partitioner = sc.partitioner();
    let source = sc.source().map_err(|e| ArgError(e.to_string()))?;
    let my_items = source.filter(move |_| partitioner.next_site() == site_id);
    let s_eff = query.sample_size(sc.s);
    let cfg = SworConfig::new(s_eff, sc.k);
    match query {
        Query::L1 { .. } => {
            let ell = query.duplication().expect("l1 has a duplication factor");
            let site = L1Site::new(&cfg, ell, l1_site_seed(sc.seed, site_id));
            drive_attach(
                &connect,
                &stream,
                site_id,
                site,
                my_items,
                &sc.runtime,
                send_eof,
                out,
            )
        }
        // rhh runs on the stock SWOR nodes; window streams run the plain
        // SWOR substrate with best-effort id filtering at query time.
        _ => {
            let site = swor_site(&cfg, sc.seed, site_id);
            drive_attach(
                &connect,
                &stream,
                site_id,
                site,
                my_items,
                &sc.runtime,
                send_eof,
                out,
            )
        }
    }
}

/// The attach-side driving loop shared by every site-node type.
#[allow(clippy::too_many_arguments)]
fn drive_attach<S, I, W>(
    addr: &str,
    stream: &str,
    site_id: usize,
    site: S,
    items: I,
    rcfg: &RuntimeConfig,
    send_eof: bool,
    out: &mut W,
) -> Result<(), ArgError>
where
    S: SiteNode,
    S::Up: FrameCodec + Send + 'static,
    S::Down: FrameCodec + Send + 'static,
    I: Iterator<Item = Item>,
    W: Write,
{
    let t0 = std::time::Instant::now();
    let mut client = AttachClient::attach(addr, stream, site_id, site, rcfg)
        .map_err(|e| ArgError(format!("attach failed: {e}")))?;
    let attach_ms = t0.elapsed().as_secs_f64() * 1e3;
    writeln!(
        out,
        "site {site_id}: attached to stream {stream:?} in {attach_ms:.2} ms \
         (resumed {}, prior items {})",
        client.resumed(),
        client.prior_items()
    )
    .ok();
    out.flush().ok();
    let mut fed = 0u64;
    client
        .feed(items.inspect(|_| fed += 1))
        .map_err(|e| ArgError(format!("feed failed: {e}")))?;
    let outcome = if send_eof {
        client.finish()
    } else {
        client.detach()
    };
    let (_, metrics) = outcome.map_err(|e| ArgError(format!("close failed: {e}")))?;
    writeln!(
        out,
        "site {site_id}: fed {fed} items, sent {} messages ({} bytes), {}",
        metrics.up_total,
        metrics.up_bytes,
        if send_eof {
            "finished (Eof)"
        } else {
            "detached (resumable)"
        }
    )
    .ok();
    Ok(())
}

/// `query`: issue live queries against a running daemon stream —
/// `sample`, `l1-now`, `rhh-so-far`, `window-now`, `stats` — plus the
/// `drain` and `shutdown` control verbs.
fn cmd_query<W: Write>(p: &Parsed, out: &mut W) -> Result<(), ArgError> {
    let connect = p
        .flags
        .get("connect")
        .cloned()
        .ok_or_else(|| ArgError("query needs --connect <addr>".into()))?;
    let kindstr = p.str_or("kind", "stats");
    let format = p.str_or("format", "text");
    if format != "text" && format != "json" {
        return Err(ArgError(format!(
            "--format must be text or json, got '{format}'"
        )));
    }
    let live_kind = match kindstr.as_str() {
        "shutdown" | "drain" => None,
        other => Some(LiveQueryKind::parse(other).ok_or_else(|| {
            ArgError(format!(
                "--kind expects sample|l1-now|rhh-so-far|window-now|stats|drain|shutdown, \
                 got '{other}'"
            ))
        })?),
    };
    let mut ctrl = CtrlClient::connect(connect.as_str())
        .map_err(|e| ArgError(format!("cannot connect '{connect}': {e}")))?;
    if kindstr == "shutdown" {
        let resp = ctrl
            .shutdown()
            .map_err(|e| ArgError(format!("shutdown failed: {e}")))?;
        match resp {
            CtrlResp::Ok { info } => {
                writeln!(out, "daemon shut down: {info}").ok();
                return Ok(());
            }
            other => return Err(ArgError(format!("unexpected response {other:?}"))),
        }
    }
    let stream = p
        .flags
        .get("stream")
        .cloned()
        .ok_or_else(|| ArgError("query needs --stream <name>".into()))?;
    if kindstr == "drain" {
        let snap = ctrl
            .drain_stream(&stream)
            .map_err(|e| ArgError(format!("drain failed: {e}")))?;
        print_snapshot(out, &stream, &snap, &format);
        return Ok(());
    }
    let kind = live_kind.expect("validated above");
    let window = p.magnitude_or("window", 0)?;
    let repeat = p.u64_or("repeat", 1)?.max(1);
    // Client-side round-trip latencies go into the same ε-approximate
    // quantile sketch the daemon uses for its own service latencies, so
    // the two sides' percentiles are directly comparable.
    let mut latency = QuantileSketch::new(HISTOGRAM_EPS);
    let t0 = std::time::Instant::now();
    let mut last = None;
    for _ in 0..repeat {
        let q0 = std::time::Instant::now();
        last = Some(
            ctrl.snapshot(&stream, kind, window)
                .map_err(|e| ArgError(format!("query failed: {e}")))?,
        );
        latency.observe(q0.elapsed().as_nanos() as f64);
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let snap = last.expect("repeat >= 1");
    print_snapshot(out, &stream, &snap, &format);
    if repeat > 1 {
        let us = |q: f64, sketch: &mut QuantileSketch| sketch.query(q).unwrap_or(0.0) / 1e3;
        let (p50, p90, p99) = (
            us(0.50, &mut latency),
            us(0.90, &mut latency),
            us(0.99, &mut latency),
        );
        let max = latency.max().unwrap_or(0.0) / 1e3;
        let qps = repeat as f64 / elapsed.max(1e-9);
        if format == "json" {
            writeln!(
                out,
                "{{\"stream\":\"{stream}\",\"repeat\":{repeat},\"elapsed_s\":{elapsed:.6},\
                 \"queries_per_s\":{qps:.1},\"latency_us\":{{\"p50\":{p50:.1},\
                 \"p90\":{p90:.1},\"p99\":{p99:.1},\"max\":{max:.1}}}}}"
            )
            .ok();
        } else {
            writeln!(
                out,
                "{repeat} queries in {elapsed:.3} s ({qps:.0} queries/s)\n\
                 round-trip latency: p50 {p50:.1} us, p90 {p90:.1} us, \
                 p99 {p99:.1} us, max {max:.1} us"
            )
            .ok();
        }
    }
    Ok(())
}

/// `metrics`: one-shot telemetry scrape of a running daemon —
/// Prometheus-style exposition text by default, `--format json` for the
/// full structured report (per-stream sections included).
fn cmd_metrics<W: Write>(p: &Parsed, out: &mut W) -> Result<(), ArgError> {
    let connect = p
        .flags
        .get("connect")
        .cloned()
        .ok_or_else(|| ArgError("metrics needs --connect <addr>".into()))?;
    let format = p.str_or("format", "prom");
    if !matches!(format.as_str(), "prom" | "text" | "json") {
        return Err(ArgError(format!(
            "--format must be prom, text or json, got '{format}'"
        )));
    }
    let events = p.u64_or("events", 32)?.min(u64::from(u32::MAX)) as u32;
    let mut ctrl = CtrlClient::connect(connect.as_str())
        .map_err(|e| ArgError(format!("cannot connect '{connect}': {e}")))?;
    let report = ctrl
        .metrics(events)
        .map_err(|e| ArgError(format!("scrape failed: {e}")))?;
    if format == "json" {
        writeln!(out, "{}", render_json(&report)).ok();
    } else {
        write!(out, "{}", render_prometheus(&report)).ok();
    }
    Ok(())
}

/// `top`: a refreshing per-stream table against a live daemon. Each round
/// scrapes the telemetry endpoint and derives items/s from the counter
/// and clock deltas between consecutive scrapes.
fn cmd_top<W: Write>(p: &Parsed, out: &mut W) -> Result<(), ArgError> {
    let connect = p
        .flags
        .get("connect")
        .cloned()
        .ok_or_else(|| ArgError("top needs --connect <addr>".into()))?;
    let refresh = p.f64_or("refresh", 1.0)?;
    if !refresh.is_finite() || refresh < 0.0 {
        return Err(ArgError(format!(
            "--refresh expects a non-negative number of seconds, got {refresh}"
        )));
    }
    let iterations = p.u64_or("iterations", 0)?;
    let events = p.u64_or("events", 4)?.min(u64::from(u32::MAX)) as u32;
    let mut ctrl = CtrlClient::connect(connect.as_str())
        .map_err(|e| ArgError(format!("cannot connect '{connect}': {e}")))?;
    let mut prev: Option<MetricsReport> = None;
    let mut round = 0u64;
    loop {
        round += 1;
        let report = match ctrl.metrics(events) {
            Ok(r) => r,
            Err(e) => {
                if round == 1 {
                    return Err(ArgError(format!("scrape failed: {e}")));
                }
                writeln!(out, "daemon went away: {e}").ok();
                return Ok(());
            }
        };
        print_top(out, &report, prev.as_ref());
        out.flush().ok();
        prev = Some(report);
        if iterations > 0 && round >= iterations {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_secs_f64(refresh.max(0.05)));
    }
}

/// One `top` frame: the daemon header plus a row per stream. Rates come
/// from deltas against the previous scrape (dashes on the first one).
fn print_top<W: Write>(out: &mut W, report: &MetricsReport, prev: Option<&MetricsReport>) {
    writeln!(
        out,
        "dwrs top: uptime {:.1} s, {} stream(s) live, {} created, {} daemon event(s)",
        report.uptime_nanos as f64 / 1e9,
        report.streams.len(),
        report.streams_created,
        report.events.len(),
    )
    .ok();
    writeln!(
        out,
        "{:<16} {:>12} {:>11} {:>7} {:>7} {:>9} {:>9} {:>9}  last event",
        "stream", "items", "items/s", "sites", "queue", "p50(us)", "p95(us)", "p99(us)",
    )
    .ok();
    for s in &report.streams {
        let rate = prev
            .and_then(|p| {
                let before = p.streams.iter().find(|ps| ps.stream == s.stream)?;
                let dt = report.now_nanos.saturating_sub(p.now_nanos) as f64 / 1e9;
                (dt > 0.0).then(|| (s.items.saturating_sub(before.items)) as f64 / dt)
            })
            .map_or_else(|| "-".to_string(), |r| format!("{r:.0}"));
        let (p50, p95, p99) = s.latency.as_ref().map_or_else(
            || ("-".to_string(), "-".to_string(), "-".to_string()),
            |h| {
                (
                    format!("{:.1}", h.p50 / 1e3),
                    format!("{:.1}", h.p95 / 1e3),
                    format!("{:.1}", h.p99 / 1e3),
                )
            },
        );
        let last_event = s.events.last().map_or_else(
            || "-".to_string(),
            |e| format!("{} (a={}, b={})", event_name(e.code), e.a, e.b),
        );
        writeln!(
            out,
            "{:<16} {:>12} {:>11} {:>3}/{:<3} {:>7} {:>9} {:>9} {:>9}  {}",
            s.stream,
            s.items,
            rate,
            s.sites_attached,
            s.sites_eof,
            format!("{}/{}", s.queue_depth, s.queue_capacity),
            p50,
            p95,
            p99,
            last_event
        )
        .ok();
    }
}

/// Prints one live snapshot — `--format json` emits the
/// [`LiveSnapshot::to_json`] line.
fn print_snapshot<W: Write>(out: &mut W, stream: &str, snap: &LiveSnapshot, format: &str) {
    if format == "json" {
        writeln!(out, "{}", snap.to_json(stream)).ok();
        return;
    }
    writeln!(
        out,
        "stream {stream:?} [{}] at {} items (epoch {}):",
        snap.kind.name(),
        snap.items,
        snap.epoch.map_or("-".to_string(), |e| e.to_string())
    )
    .ok();
    writeln!(
        out,
        "  u = {:.6e}, estimate = {:.4}, ell = {}",
        snap.u, snap.estimate, snap.ell
    )
    .ok();
    writeln!(
        out,
        "  sites: {} attached, {} finished",
        snap.sites_attached, snap.sites_eof
    )
    .ok();
    writeln!(
        out,
        "  messages: {} up ({} bytes), {} down ({} bytes), {} broadcasts",
        snap.up_msgs, snap.up_bytes, snap.down_msgs, snap.down_bytes, snap.broadcast_events
    )
    .ok();
    writeln!(
        out,
        "  stale: {} regular, {} early",
        snap.stale_regular, snap.stale_early
    )
    .ok();
    writeln!(out, "  sample size: {}", snap.sample.len()).ok();
    for kd in snap.sample.iter().take(5) {
        writeln!(
            out,
            "    {:>12}  {:>14.4}  {:.6e}",
            kd.item.id, kd.item.weight, kd.key
        )
        .ok();
    }
}

/// `load`: a complete load/chaos experiment against a daemon — paced
/// writers under a traffic schedule, interleaved query workers, an
/// optional seeded fault plan, and the post-run invariant battery. The
/// command is a thin veneer over [`dwrs_load::run_load`]; any invariant
/// violation makes it exit non-zero so CI can gate on a run.
fn cmd_load<W: Write>(p: &Parsed, out: &mut W) -> Result<(), ArgError> {
    let format = p.str_or("format", "text");
    if format != "text" && format != "json" {
        return Err(ArgError(format!(
            "--format must be text or json, got '{format}'"
        )));
    }
    let schedule_spec = p.str_or("schedule", "steady");
    let faults = p.u64_or("faults", 0)? as usize;
    let mut cfg = dwrs_load::LoadConfig::new(&p.str_or("stream", "load"));
    cfg.connect = p.flags.get("connect").cloned();
    cfg.writers = p.u64_or("writers", cfg.writers as u64)? as usize;
    cfg.s = p.u64_or("s", cfg.s as u64)? as usize;
    cfg.query = p.str_or("query", &cfg.query);
    cfg.rate = p.magnitude_or("rate", cfg.rate)?;
    cfg.n = p.magnitude_or("n", cfg.n)?;
    cfg.schedule = dwrs_load::Schedule::parse(&schedule_spec).map_err(ArgError)?;
    cfg.query_workers = p.u64_or("query-workers", cfg.query_workers as u64)? as usize;
    cfg.chaos = (faults > 0).then_some(dwrs_load::ChaosConfig { faults });
    cfg.seed = p.u64_or("seed", cfg.seed)?;
    cfg.runtime.batch_max = p.u64_or("batch", cfg.runtime.batch_max as u64)?.max(1) as usize;
    cfg.runtime.queue_capacity =
        p.u64_or("queue", cfg.runtime.queue_capacity as u64)?.max(1) as usize;

    let report = dwrs_load::run_load(&cfg).map_err(|e| ArgError(format!("load failed: {e}")))?;
    if format == "json" {
        writeln!(out, "{}", report.to_json()).ok();
    } else {
        writeln!(
            out,
            "load: {} writers at {} items/s ({}), {} items, query {}",
            report.writers, report.rate, report.schedule, report.n, cfg.query
        )
        .ok();
        writeln!(
            out,
            "fed {} items in {:.3} s: {:.0} items/s achieved ({:+.2}% vs target), \
             {} delivered",
            report.fed,
            report.elapsed_s,
            report.achieved_rate,
            report.rate_error_pct,
            report.delivered
        )
        .ok();
        writeln!(
            out,
            "queries: {} answered, {} scrapes, {} errors",
            report.queries, report.scrapes, report.query_errors
        )
        .ok();
        if let Some(l) = &report.latency {
            writeln!(
                out,
                "query latency ({} obs): p50 {:.1} us, p90 {:.1} us, p99 {:.1} us, \
                 max {:.1} us",
                l.count, l.p50_us, l.p90_us, l.p99_us, l.max_us
            )
            .ok();
        }
        for e in &report.events {
            writeln!(
                out,
                "chaos: site {} {} at {} items (dwell {} ms, snapshot at {} stream \
                 items, {} retries)",
                e.site,
                e.action.name(),
                e.at_items,
                e.dwell_ms,
                e.snapshot_items,
                e.retries
            )
            .ok();
        }
        if report.invariants_ok() {
            writeln!(out, "invariants: all passed").ok();
        }
    }
    invariant_verdict(&report.violations)
}

fn cmd_workload<W: Write>(p: &Parsed, out: &mut W) -> Result<(), ArgError> {
    let n = p.magnitude_or("n", 1_000)?;
    if n == 0 {
        return Err(ArgError("--n must be at least 1".into()));
    }
    let seed = p.u64_or("seed", 7)?;
    let workload = Workload::parse(&p.str_or("kind", "zipf:1.2")).map_err(ArgError)?;
    let source = workload
        .source(n, seed)
        .map_err(|e| ArgError(e.to_string()))?;
    writeln!(out, "id,weight").ok();
    // Streamed straight to the sink: exporting a 100M-item workload needs
    // no more memory than exporting a hundred.
    for it in source {
        writeln!(out, "{},{}", it.id, it.weight).ok();
    }
    Ok(())
}

fn cmd_track_l1<W: Write>(p: &Parsed, out: &mut W) -> Result<(), ArgError> {
    let n = p.u64_or("n", 65_536)?;
    let k = p.positive_or("k", 16)? as usize;
    let eps = p.f64_or("eps", 0.1)?;
    let seed = p.u64_or("seed", 1)?;
    if !(0.0..0.5).contains(&eps) || eps <= 0.0 {
        return Err(ArgError("--eps must be in (0, 0.5)".into()));
    }
    let stream: Vec<(usize, Item)> = (0..n)
        .map(|i| ((i % k as u64) as usize, Item::unit(i)))
        .collect();
    writeln!(out, "L1 tracking: n = {n}, k = {k}, eps = {eps}").ok();
    writeln!(
        out,
        "{:<42} {:>12} {:>12}",
        "tracker", "max rel err", "messages"
    )
    .ok();
    let probe = (n / 50).max(1) as usize;
    {
        let mut t = FolkloreTracker::new(eps, k);
        let (e, m) = run_tracker(&mut t, &stream, probe);
        writeln!(out, "{:<42} {:>12.4} {:>12}", t.name(), e, m).ok();
    }
    {
        let mut t = HyzTracker::new(eps, k, seed);
        let (e, m) = run_tracker(&mut t, &stream, probe);
        writeln!(out, "{:<42} {:>12.4} {:>12}", t.name(), e, m).ok();
    }
    {
        let mut cfg = L1Config::new(eps, 0.25, k);
        let s = ((2.0 / (eps * eps)).ceil() as usize).max(8);
        cfg.sample_size_override = Some(s);
        cfg.dup_override = Some((s as f64 / (2.0 * eps)).ceil() as u64);
        let mut t = L1DupTracker::new(cfg, seed);
        let (e, m) = run_tracker(&mut t, &stream, probe);
        writeln!(out, "{:<42} {:>12.4} {:>12}", t.name(), e, m).ok();
    }
    {
        let s = ((1.0 / (eps * eps)).ceil() as usize).max(8);
        let mut t = PiggybackL1Tracker::new(s, k, seed);
        let (e, m) = run_tracker(&mut t, &stream, probe);
        writeln!(out, "{:<42} {:>12.4} {:>12}", t.name(), e, m).ok();
    }
    Ok(())
}

fn cmd_residual_hh<W: Write>(p: &Parsed, out: &mut W) -> Result<(), ArgError> {
    let n = p.u64_or("n", 20_000)? as usize;
    let k = p.positive_or("k", 8)? as usize;
    let eps = p.f64_or("eps", 0.2)?;
    let delta = p.f64_or("delta", 0.05)?;
    let top = p.positive_or("top", 4)? as usize;
    let seed = p.u64_or("seed", 3)?;
    if !(0.0..1.0).contains(&eps) || eps <= 0.0 {
        return Err(ArgError("--eps must be in (0, 1)".into()));
    }
    if !(0.0..1.0).contains(&delta) || delta <= 0.0 {
        return Err(ArgError("--delta must be in (0, 1)".into()));
    }
    if n <= top {
        return Err(ArgError(format!("--n must exceed --top {top}")));
    }
    let items = workloads::residual_skew(n, top, seed);
    let cfg = ResidualHhConfig::new(eps, delta, k);
    writeln!(
        out,
        "residual heavy hitters: n = {n}, k = {k}, eps = {eps}, s = {}",
        cfg.sample_size()
    )
    .ok();
    let mut tracker = ResidualHeavyHitters::new(cfg, seed);
    for (t, it) in items.iter().enumerate() {
        tracker.observe(t % k, *it);
    }
    let got = tracker.query();
    let want = exact_residual_heavy_hitters(&items, eps);
    writeln!(out, "candidates (top by weight):").ok();
    for it in got.iter().take(12) {
        let mark = if want.contains(&it.id) { "*" } else { " " };
        writeln!(out, "  {mark} id {:>8}  weight {:.6e}", it.id, it.weight).ok();
    }
    writeln!(
        out,
        "recall of required residual heavy hitters: {:.3} ({} required)",
        recall(&want, &got),
        want.len()
    )
    .ok();
    writeln!(out, "messages: {}", tracker.messages()).ok();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse_args;

    fn run_cmd(line: &str) -> (i32, String) {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        let mut buf = Vec::new();
        let code = crate::run(&argv, &mut buf);
        (code, String::from_utf8(buf).expect("utf8"))
    }

    #[test]
    fn sample_command_outputs_sample_and_metrics() {
        let (code, out) = run_cmd("sample --n 5000 --k 4 --s 8 --workload zipf:1.3");
        assert_eq!(code, 0, "output: {out}");
        assert!(out.contains("sample (id, weight, key):"));
        assert!(out.contains("messages: total"));
        assert!(out.contains("bytes on the wire"));
    }

    #[test]
    fn run_fails_on_an_invariant_violation_after_printing_the_report() {
        let sc = Scenario::new(EngineKind::Lockstep, 2, 4).with_n(500);
        let mut report = run_scenario(&sc).expect("lockstep run");
        assert!(invariant_verdict(&report.violations).is_ok());
        report
            .violations
            .push("sample size 3 != min(n, s) = 4".to_string());
        for (format, flagged) in [
            ("text", "WARNING: invariant violations"),
            ("json", "\"invariants_ok\":false"),
        ] {
            let mut buf = Vec::new();
            print_report(&report, &sc, true, format, &mut buf);
            let out = String::from_utf8(buf).expect("utf8");
            assert!(out.contains(flagged), "{format}: {out}");
        }
        let err = invariant_verdict(&report.violations).expect_err("a violation must fail");
        assert!(
            err.0.contains("sample size 3 != min(n, s) = 4"),
            "{}",
            err.0
        );
    }

    #[test]
    fn run_command_all_engines_report_throughput() {
        for engine in ["lockstep", "threads", "epoll"] {
            let (code, out) = run_cmd(&format!(
                "run --engine {engine} --n 20000 --k 4 --s 8 --workload zipf_iid:1.2 --batch 8 --queue 8"
            ));
            assert_eq!(code, 0, "engine {engine}: {out}");
            assert!(out.contains(&format!("engine {engine}:")), "{out}");
            assert!(out.contains("items/s"), "{out}");
            assert!(out.contains("sample size: 8"), "{out}");
            assert!(out.contains("messages: total"), "{out}");
            assert!(out.contains("bytes on the wire"), "{out}");
        }
    }

    #[test]
    fn run_accepts_down_poll_every_knob() {
        // Extremes of the cadence knob both complete with invariants
        // intact: 1 = poll the down link before every item (freshest
        // thresholds), huge = effectively never mid-stream (correctness
        // is delivery-delay-tolerant by design).
        for cadence in [1u32, 1_000_000] {
            let (code, out) = run_cmd(&format!(
                "run --engine epoll --n 20000 --k 4 --s 8 --down-poll-every {cadence} --format json"
            ));
            assert_eq!(code, 0, "cadence {cadence}: {out}");
            assert!(out.contains("\"invariants_ok\":true"), "{out}");
        }
        let (code, out) = run_cmd("run --down-poll-every nope --n 10");
        assert_eq!(code, 2, "{out}");
        assert!(
            out.contains("--down-poll-every expects an integer"),
            "{out}"
        );
    }

    #[test]
    fn run_tree_all_engines_report_root_sample() {
        for engine in ["lockstep", "threads", "epoll"] {
            let (code, out) = run_cmd(&format!(
                "run --engine {engine} --topology tree --n 20000 --k 4 --groups 2 \
                 --sync-every 1000 --s 8 --workload zipf_iid:1.2 --batch 8 --queue 8"
            ));
            assert_eq!(code, 0, "engine {engine}: {out}");
            assert!(
                out.contains("topology = tree (2 groups x 2 sites)"),
                "{out}"
            );
            assert!(out.contains("root syncs:"), "{out}");
            assert!(out.contains("sample size: 8"), "{out}");
            assert!(out.contains("items/s"), "{out}");
        }
    }

    #[test]
    fn run_query_flag_reports_answers_on_every_engine() {
        for engine in ["lockstep", "threads", "epoll"] {
            let (code, out) = run_cmd(&format!(
                "run --engine {engine} --query l1:0.25,0.25 --n 20000 --k 4 --format json"
            ));
            assert_eq!(code, 0, "{out}");
            let line = out.lines().last().unwrap();
            for field in [
                "\"query\":\"l1\"",
                "\"estimate\":",
                "\"true_weight\":",
                "\"rel_error\":",
                "\"invariants_ok\":true",
            ] {
                assert!(line.contains(field), "missing {field} in {line}");
            }
            let (code, out) = run_cmd(&format!(
                "run --engine {engine} --query rhh:0.25 --n 20000 --k 4 \
                 --workload residual_skew:4 --format json"
            ));
            assert_eq!(code, 0, "{out}");
            let line = out.lines().last().unwrap();
            for field in ["\"query\":\"rhh\"", "\"recall\":", "\"required\":"] {
                assert!(line.contains(field), "missing {field} in {line}");
            }
            let (code, out) = run_cmd(&format!(
                "run --engine {engine} --query window:5000 --n 20000 --k 4 --s 8 --format json"
            ));
            assert_eq!(code, 0, "{out}");
            let line = out.lines().last().unwrap();
            for field in [
                "\"query\":\"window\"",
                "\"window\":5000",
                "\"sample_size\":8",
            ] {
                assert!(line.contains(field), "missing {field} in {line}");
            }
        }
    }

    #[test]
    fn run_query_text_output_and_tree_topology() {
        let (code, out) = run_cmd(
            "run --engine threads --query l1:0.25,0.25 --n 10000 --k 4 --groups 2 --topology tree",
        );
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("query = l1"), "{out}");
        assert!(out.contains("L1 estimate"), "{out}");
        let (code, out) = run_cmd("run --query quantum --n 10");
        assert_eq!(code, 2);
        assert!(out.contains("unknown query"), "{out}");
        let (code, out) = run_cmd("run --query l1:0.9 --n 10");
        assert_eq!(code, 2);
        assert!(out.contains("eps"), "{out}");
        let (code, out) = run_cmd("run --query window:0 --n 10");
        assert_eq!(code, 2);
        assert!(out.contains("window"), "{out}");
    }

    #[test]
    fn run_tree_json_format() {
        let (code, out) = run_cmd(
            "run --engine threads --topology tree --n 8000 --k 4 --groups 2 --s 4 --format json",
        );
        assert_eq!(code, 0, "output: {out}");
        let line = out.lines().last().unwrap();
        for field in [
            "\"topology\":\"tree\"",
            "\"groups\":2",
            "\"k_per_group\":2",
            "\"sync_every\":10000",
            "\"sample_size\":4",
            "\"sync_messages\":",
            "\"syncs\":",
        ] {
            assert!(line.contains(field), "missing {field} in {line}");
        }
    }

    #[test]
    fn run_tree_validates_flags() {
        let (code, out) = run_cmd("run --topology tree --n 10 --k 8 --groups 3");
        assert_eq!(code, 2);
        assert!(out.contains("must divide"), "{out}");
        let (code, out) = run_cmd("run --topology ring --n 10");
        assert_eq!(code, 2);
        assert!(out.contains("--topology"), "{out}");
        let (code, out) = run_cmd("run --topology tree --n 10 --k 4 --sync-every 0");
        assert_eq!(code, 2);
        assert!(out.contains("--sync-every"), "{out}");
    }

    #[test]
    fn run_command_json_format() {
        let (code, out) = run_cmd("run --engine threads --n 5000 --k 2 --s 4 --format json");
        assert_eq!(code, 0, "output: {out}");
        let line = out.lines().last().unwrap();
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        for field in [
            "\"engine\":\"threads\"",
            "\"topology\":\"flat\"",
            "\"n\":5000",
            "\"sample_size\":4",
            "\"items_per_s\":",
            "\"messages\":",
            "\"bytes\":",
        ] {
            assert!(line.contains(field), "missing {field} in {line}");
        }
    }

    #[test]
    fn run_command_rejects_bad_engine_and_format() {
        let (code, out) = run_cmd("run --engine quantum --n 10");
        assert_eq!(code, 2);
        assert!(out.contains("unknown engine"), "{out}");
        let (code, out) = run_cmd("run --n 10 --format yaml");
        assert_eq!(code, 2);
        assert!(out.contains("--format"), "{out}");
    }

    /// `Write` sink shared across threads, so a test can watch `daemon`'s
    /// output for the bound address while the command is still running.
    #[derive(Clone, Default)]
    struct SharedBuf(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);
    impl std::io::Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    impl SharedBuf {
        fn contents(&self) -> String {
            String::from_utf8(self.0.lock().unwrap().clone()).expect("utf8")
        }
    }

    /// Starts `dwrs daemon` on a background thread and returns the bound
    /// address, the output buffer, and the join handle.
    fn spawn_daemon() -> (String, SharedBuf, std::thread::JoinHandle<i32>) {
        let out = SharedBuf::default();
        let handle = {
            let mut w = out.clone();
            std::thread::spawn(move || {
                let argv: Vec<String> = "daemon --listen 127.0.0.1:0 --seed 11"
                    .split_whitespace()
                    .map(String::from)
                    .collect();
                crate::run(&argv, &mut w)
            })
        };
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        let addr = loop {
            let text = out.contents();
            if let Some(line) = text.lines().find(|l| l.starts_with("daemon listening on ")) {
                break line["daemon listening on ".len()..].trim().to_string();
            }
            assert!(
                !handle.is_finished(),
                "daemon exited before listening: {text}"
            );
            assert!(
                std::time::Instant::now() < deadline,
                "timed out waiting for daemon to bind: {text}"
            );
            std::thread::sleep(std::time::Duration::from_millis(5));
        };
        (addr, out, handle)
    }

    #[test]
    fn daemon_attach_query_shutdown_lifecycle() {
        let (addr, daemon_out, daemon) = spawn_daemon();
        // Two streams: a 2-site swor stream and a 1-site l1 stream.
        let swor_common = format!(
            "--connect {addr} --stream alpha --n 6000 --k 2 --s 8 --seed 9 \
             --workload zipf_iid:1.3"
        );
        let attachers: Vec<_> = (0..2)
            .map(|i| {
                let cmd = format!("attach {swor_common} --site {i}");
                std::thread::spawn(move || run_cmd(&cmd))
            })
            .collect();
        for a in attachers {
            let (code, out) = a.join().unwrap();
            assert_eq!(code, 0, "attach output: {out}");
            assert!(out.contains("attached to stream \"alpha\""), "{out}");
            assert!(out.contains("fed 3000 items"), "{out}");
            assert!(out.contains("finished (Eof)"), "{out}");
        }
        let (code, out) = run_cmd(&format!(
            "attach --connect {addr} --stream beta --site 0 --n 2000 --k 1 --s 4 \
             --query l1:0.3,0.3 --workload unit"
        ));
        assert_eq!(code, 0, "{out}");
        // Live queries: text stats on alpha, JSON l1-now on beta, repeat
        // for the queries/s line.
        let (code, out) = run_cmd(&format!(
            "query --connect {addr} --stream alpha --kind stats"
        ));
        assert_eq!(code, 0, "{out}");
        assert!(
            out.contains("stream \"alpha\" [stats] at 6000 items"),
            "{out}"
        );
        assert!(out.contains("2 finished"), "{out}");
        let (code, out) = run_cmd(&format!(
            "query --connect {addr} --stream beta --kind l1-now --format json --repeat 20"
        ));
        assert_eq!(code, 0, "{out}");
        let json = out.lines().find(|l| l.starts_with('{')).expect("json");
        for field in [
            "\"stream\":\"beta\"",
            "\"kind\":\"l1-now\"",
            "\"items\":2000",
        ] {
            assert!(json.contains(field), "missing {field} in {json}");
        }
        // --repeat emits sketch-backed round-trip percentiles, not a bare
        // QPS count.
        let stats = out
            .lines()
            .find(|l| l.contains("\"repeat\":20"))
            .expect("repeat stats json line");
        for field in [
            "\"queries_per_s\":",
            "\"latency_us\":",
            "\"p50\":",
            "\"p99\":",
        ] {
            assert!(stats.contains(field), "missing {field} in {stats}");
        }
        // Text mode keeps the QPS line and adds the percentiles.
        let (code, out) = run_cmd(&format!(
            "query --connect {addr} --stream beta --kind stats --repeat 10"
        ));
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("queries/s"), "{out}");
        assert!(out.contains("round-trip latency: p50"), "{out}");
        // A telemetry scrape mid-lifecycle: Prometheus text exposition
        // with live gauges, and the same report as JSON.
        let (code, out) = run_cmd(&format!("metrics --connect {addr}"));
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("# TYPE dwrs_items_total counter"), "{out}");
        assert!(
            out.contains("dwrs_stream_items_total{stream=\"beta\"} 2000"),
            "{out}"
        );
        let (code, out) = run_cmd(&format!("metrics --connect {addr} --format json"));
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("\"streams_created\":"), "{out}");
        assert!(out.contains("\"stream\":\"beta\""), "{out}");
        // Two top frames: per-stream rows with a rate column on the
        // second frame.
        let (code, out) = run_cmd(&format!(
            "top --connect {addr} --iterations 2 --refresh 0.05"
        ));
        assert_eq!(code, 0, "{out}");
        assert_eq!(
            out.matches("dwrs top: uptime").count(),
            2,
            "two frames: {out}"
        );
        assert!(out.contains("beta"), "{out}");
        assert!(out.contains("p95(us)"), "{out}");
        // Drain alpha explicitly; shut the daemon down (drains beta).
        let (code, out) = run_cmd(&format!(
            "query --connect {addr} --stream alpha --kind drain --format json"
        ));
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("\"items\":6000"), "{out}");
        let (code, out) = run_cmd(&format!("query --connect {addr} --kind shutdown"));
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("daemon shut down"), "{out}");
        assert_eq!(daemon.join().unwrap(), 0);
        let text = daemon_out.contents();
        assert!(text.contains("drained stream \"alpha\""), "{text}");
        assert!(text.contains("drained stream \"beta\""), "{text}");
        assert!(text.contains("daemon stopped"), "{text}");
    }

    #[test]
    fn attach_detach_reattach_resumes() {
        let (addr, _daemon_out, daemon) = spawn_daemon();
        let common = format!("--connect {addr} --stream s --k 1 --s 4 --seed 3 --workload unit");
        let (code, out) = run_cmd(&format!("attach {common} --site 0 --n 500 --eof false"));
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("resumed false"), "{out}");
        assert!(out.contains("detached (resumable)"), "{out}");
        let (code, out) = run_cmd(&format!("attach {common} --site 0 --n 700"));
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("resumed true, prior items 500"), "{out}");
        let (code, out) = run_cmd(&format!("query --connect {addr} --stream s --kind sample"));
        assert_eq!(code, 0, "{out}");
        // 500 from the first attach + 700 from the resumed one.
        assert!(out.contains("at 1200 items"), "{out}");
        let (code, _) = run_cmd(&format!("query --connect {addr} --kind shutdown"));
        assert_eq!(code, 0);
        assert_eq!(daemon.join().unwrap(), 0);
    }

    #[test]
    fn attach_and_query_validate_flags() {
        let (code, out) = run_cmd("attach --connect 127.0.0.1:1");
        assert_eq!(code, 2);
        assert!(out.contains("--stream"), "{out}");
        let (code, out) = run_cmd("attach --connect 127.0.0.1:1 --stream s");
        assert_eq!(code, 2);
        assert!(out.contains("--site"), "{out}");
        let (code, out) =
            run_cmd("attach --connect 127.0.0.1:1 --stream s --site 0 --workload zipf:1.1");
        assert_eq!(code, 2);
        assert!(out.contains("zipf_iid"), "{out}");
        let (code, out) = run_cmd("attach --connect 127.0.0.1:1 --stream s --site 0 --eof maybe");
        assert_eq!(code, 2);
        assert!(out.contains("--eof"), "{out}");
        // k and s travel as u32 in the Create frame: no silent truncation.
        for flag in ["k", "s"] {
            let (code, out) = run_cmd(&format!(
                "attach --connect 127.0.0.1:1 --stream s --site 0 --{flag} 5000000000"
            ));
            assert_eq!(code, 2);
            assert!(out.contains(&format!("--{flag} 5000000000")), "{out}");
        }
        let (code, out) = run_cmd("query --stream s --kind stats");
        assert_eq!(code, 2);
        assert!(out.contains("--connect"), "{out}");
        let (code, out) = run_cmd("query --connect 127.0.0.1:1 --stream s --kind tarot");
        assert_eq!(code, 2);
        assert!(out.contains("--kind"), "{out}");
    }

    #[test]
    fn run_accepts_human_magnitudes() {
        let (code, out) = run_cmd("run --engine lockstep --n 20k --k 4 --s 8 --format json");
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("\"n\":20000"), "{out}");
        let (code, out) = run_cmd(
            "run --engine threads --topology tree --n 8k --k 4 --groups 2 \
             --sync-every 1k --s 4 --format json",
        );
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("\"sync_every\":1000"), "{out}");
        assert!(out.contains("\"n\":8000"), "{out}");
        let (code, out) = run_cmd("run --n nope");
        assert_eq!(code, 2);
        assert!(out.contains("--n"), "{out}");
    }

    #[test]
    fn zipf_streaming_run_is_refused_as_ambiguous() {
        // `zipf` is the exact rank permutation; streaming it silently used
        // to substitute the i.i.d.-rank distribution. Now it's an error…
        let (code, out) = run_cmd("run --engine lockstep --n 5000 --k 2 --s 4 --workload zipf:1.2");
        assert_eq!(code, 2, "{out}");
        assert!(out.contains("zipf_iid"), "{out}");
        assert!(out.contains("--materialize true"), "{out}");
        // …while both explicit spellings run.
        let (code, out) = run_cmd(
            "run --engine lockstep --n 5000 --k 2 --s 4 --workload zipf:1.2 --materialize true",
        );
        assert_eq!(code, 0, "{out}");
        let (code, out) =
            run_cmd("run --engine lockstep --n 5000 --k 2 --s 4 --workload zipf_iid:1.2");
        assert_eq!(code, 0, "{out}");
    }

    #[test]
    fn degenerate_flags_are_errors_not_panics() {
        for cmd in [
            "run --engine threads --n 10 --k 2 --s 4 --workload uniform:5,2",
            "run --engine threads --n 10 --k 2 --s 4 --workload zipf_iid:-1",
            "run --engine threads --n 10 --k 2 --s 4 --workload lognormal:0,nan",
            "run --engine threads --n 10 --k 2 --s 0",
            "run --engine threads --n 1e300 --k 2 --s 4",
            "run --engine threads --n -5k --k 2 --s 4",
            "workload --kind pareto:0 --n 10",
        ] {
            let (code, out) = run_cmd(cmd);
            assert_eq!(code, 2, "`{cmd}` should fail cleanly: {out}");
        }
        // n = 0 is a clean empty run, not a panic.
        let (code, out) = run_cmd("run --engine lockstep --n 0 --k 2 --s 4 --format json");
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("\"n\":0"), "{out}");
    }

    #[test]
    fn run_materialized_reproduces_streaming_lockstep_exactly() {
        // --materialize true pre-builds the identical stream in memory;
        // on the deterministic lockstep engine the protocol trace must be
        // byte-identical to the streaming run.
        let common = "run --engine lockstep --n 5000 --k 4 --s 8 --seed 3 --format json";
        let (code, streaming) = run_cmd(common);
        assert_eq!(code, 0, "{streaming}");
        let (code, materialized) = run_cmd(&format!("{common} --materialize true"));
        assert_eq!(code, 0, "{materialized}");
        let field = |s: &str, key: &str| -> String {
            let start = s.find(key).unwrap_or_else(|| panic!("{key} in {s}")) + key.len();
            s[start..]
                .chars()
                .take_while(|c| c.is_ascii_digit())
                .collect()
        };
        for key in ["\"messages\":", "\"bytes\":", "\"sample_size\":", "\"n\":"] {
            assert_eq!(
                field(&streaming, key),
                field(&materialized, key),
                "{key} differs:\n{streaming}\n{materialized}"
            );
        }
        assert!(streaming.contains("\"streaming\":true"), "{streaming}");
        assert!(
            materialized.contains("\"streaming\":false"),
            "{materialized}"
        );
    }

    #[test]
    fn csv_workload_round_trips_through_run() {
        let path = std::env::temp_dir().join(format!("dwrs-cli-csv-{}.csv", std::process::id()));
        let (code, csv) = run_cmd("workload --kind uniform:1,5 --n 500 --seed 9");
        assert_eq!(code, 0);
        std::fs::write(&path, &csv).unwrap();
        let (code, out) = run_cmd(&format!(
            "run --engine threads --workload csv:{} --k 2 --s 8 --format json",
            path.display()
        ));
        std::fs::remove_file(&path).ok();
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("\"n\":500"), "{out}");
        assert!(out.contains("\"sample_size\":8"), "{out}");
    }

    #[test]
    fn workload_command_emits_csv() {
        let (code, out) = run_cmd("workload --kind unit --n 5");
        assert_eq!(code, 0);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines[0], "id,weight");
        assert_eq!(lines.len(), 6);
        assert_eq!(lines[1], "0,1");
    }

    #[test]
    fn track_l1_lists_all_trackers() {
        let (code, out) = run_cmd("track-l1 --n 4096 --k 4 --eps 0.2");
        assert_eq!(code, 0, "output: {out}");
        assert!(out.contains("folklore"));
        assert!(out.contains("HYZ12"));
        assert!(out.contains("this work"));
        assert!(out.contains("piggyback"));
    }

    #[test]
    fn residual_hh_reports_recall() {
        let (code, out) = run_cmd("residual-hh --n 3000 --k 4 --eps 0.25 --top 3");
        assert_eq!(code, 0, "output: {out}");
        assert!(out.contains("recall of required residual heavy hitters: 1.000"));
    }

    #[test]
    fn unknown_command_fails_with_usage() {
        let (code, out) = run_cmd("frobnicate --n 1");
        assert_eq!(code, 2);
        assert!(out.contains("unknown command"));
    }

    #[test]
    fn every_usage_command_dispatches() {
        // The banner's commands, the flags each section names, `dispatch`
        // and `COMMAND_FLAGS` must not drift apart. A flag no command
        // takes fails before any work, so nothing runs for real.
        type Flags = std::collections::BTreeSet<String>;
        let mut usage: Vec<(&str, Flags)> = Vec::new();
        let lines = crate::args::USAGE.lines().skip_while(|l| *l != "commands:");
        for line in lines.skip(1).take_while(|l| !l.is_empty()) {
            if let Some(head) = line.strip_prefix("  ").filter(|r| !r.starts_with(' ')) {
                usage.push((head.split_whitespace().next().unwrap(), Flags::new()));
            }
            let (_, flags) = usage.last_mut().expect("a command line comes first");
            for tail in line.split("--").skip(1) {
                let name = tail.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'));
                flags.insert(name.take(1).collect());
            }
        }
        assert_eq!(usage.len(), COMMAND_FLAGS.len(), "{usage:?}");
        for (cmd, documented) in usage {
            let (_, accepted) = COMMAND_FLAGS.iter().find(|(c, _)| *c == cmd).unwrap();
            let accepted: Flags = accepted.split_whitespace().map(String::from).collect();
            assert_eq!(accepted, documented, "{cmd}: flags vs usage");
            let (code, out) = run_cmd(&format!("{cmd} --no-such-flag x"));
            assert_eq!(code, 2, "{cmd}: {out}");
            assert!(out.contains("unknown flag --no-such-flag"), "{cmd}: {out}");
        }
    }

    #[test]
    fn bad_flags_exit_2_naming_the_flag() {
        for (cmd, flag) in [
            ("run --n 1000 --bogus 1", "--bogus"),
            ("run --n 1000 --engin epoll", "--engin"),
            ("load --n 10 --bench out.json", "--bench"),
            (
                "attach --connect 127.0.0.1:1 --stream s --site 0 --queue 4",
                "--queue",
            ),
            ("sample --k 0", "--k"),
            ("sample --s 0", "--s"),
            ("sample --n 10 --k 2 --partition single:2", "--partition"),
            ("run --n 10 --k 2 --partition single:2", "--partition"),
            ("residual-hh --k 0", "--k"),
            ("residual-hh --top 0", "--top"),
            ("residual-hh --n 4 --top 4", "--n"),
            ("residual-hh --delta 0", "--delta"),
            ("track-l1 --k 0", "--k"),
            ("workload --n 0", "--n"),
            // Checked before connecting: nothing listens on port 1.
            (
                "attach --connect 127.0.0.1:1 --stream s --site 0 --s 0",
                "--s",
            ),
        ] {
            let (code, out) = run_cmd(cmd);
            assert_eq!(code, 2, "`{cmd}`: {out}");
            assert!(
                out.contains(&format!("{flag} ")),
                "`{cmd}` names {flag}: {out}"
            );
        }
    }

    #[test]
    fn run_without_runtime_flags_uses_the_library_defaults() {
        let p = parse_args(&["run".into(), "--n".into(), "10".into()]).unwrap();
        assert_eq!(runtime_config(&p).unwrap(), RuntimeConfig::default());
        assert_eq!(make_scenario(&p).unwrap().runtime, RuntimeConfig::default());
        let p = parse_args(&["run".into(), "--queue".into(), "7".into()]).unwrap();
        assert_eq!(runtime_config(&p).unwrap().queue_capacity, 7);
    }

    #[test]
    fn usage_prints_the_library_runtime_defaults() {
        // `USAGE` is a constant, so the defaults it prints are checked
        // against the library's here instead of formatted from it.
        let d = RuntimeConfig::default();
        for (flag, value) in [
            ("--batch <", d.batch_max as u64),
            ("--queue <", d.queue_capacity as u64),
            ("--down-poll-every <", u64::from(d.down_poll_every)),
        ] {
            let usage = crate::args::USAGE;
            let after = &usage[usage.find(flag).expect(flag)..];
            let default = after["(default ".len() + after.find("(default ").unwrap()..]
                .split(|c: char| !c.is_ascii_digit())
                .next()
                .unwrap();
            assert_eq!(default, value.to_string(), "{flag}");
        }
    }

    #[test]
    fn bad_eps_rejected() {
        let (code, out) = run_cmd("track-l1 --eps 0.9");
        assert_eq!(code, 2);
        assert!(out.contains("eps"));
    }

    #[test]
    fn help_prints_usage() {
        let (code, out) = run_cmd("help");
        assert_eq!(code, 0);
        assert!(out.contains("usage: dwrs"));
    }

    #[test]
    fn make_workload_specs() {
        assert_eq!(make_workload("unit", 3, 1).unwrap().len(), 3);
        assert!(make_workload("uniform:2,5", 10, 1).is_ok());
        assert!(make_workload("nope", 10, 1).is_err());
        assert!(make_workload("uniform:abc", 10, 1).is_err());
    }

    #[test]
    fn make_partition_specs() {
        assert_eq!(make_partition("roundrobin").unwrap(), Partition::RoundRobin);
        assert_eq!(
            make_partition("single:2").unwrap(),
            Partition::SingleSite(2)
        );
        assert!(matches!(
            make_partition("skewed:0.8").unwrap(),
            Partition::Skewed { .. }
        ));
        assert!(make_partition("bogus").is_err());
        assert!(make_partition("single:x").is_err());
    }

    #[test]
    fn parse_then_dispatch_roundtrip() {
        let p = parse_args(&["sample".into(), "--n".into(), "100".into()]).unwrap();
        let mut buf = Vec::new();
        assert!(dispatch(&p, &mut buf).is_ok());
    }
}
