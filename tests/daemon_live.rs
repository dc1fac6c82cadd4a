//! Integration: the long-lived daemon hosts concurrent named streams and
//! answers live queries mid-run (the paper's continuous-monitoring model
//! as a process), a site reconnect preserves sample validity, and
//! `TAG_METRICS` scrapes are monotone mid-run and agree with final totals.

use std::ops::Range;
use std::thread;
use std::time::Duration;

use dwrs::apps::L1Site;
use dwrs::core::ctrl::LiveQueryKind;
use dwrs::core::merge::merge_two;
use dwrs::core::swor::SworConfig;
use dwrs::core::Item;
use dwrs::runtime::daemon::{AttachClient, CtrlClient, Daemon, DaemonConfig};
use dwrs::runtime::query::l1_site_seed;
use dwrs::runtime::{Query, RuntimeConfig};
use dwrs::sim::swor_site;

const CHUNK: u64 = 500;

/// Feeds `n` unit-weight items (ids `site, site+k, …` interleaved) in
/// chunks, with a short pause between chunks so the main thread's live
/// queries genuinely interleave with feeding.
fn feed_chunked<S>(mut client: AttachClient<S>, site: usize, k: u64, n: u64)
where
    S: dwrs::sim::SiteNode<Up = dwrs::core::swor::UpMsg, Down = dwrs::core::swor::DownMsg>,
{
    let mut fed = 0u64;
    while fed < n {
        let chunk = CHUNK.min(n - fed);
        client
            .feed((fed..fed + chunk).map(|t| Item::unit(t * k + site as u64)))
            .expect("feed");
        fed += chunk;
        thread::sleep(Duration::from_millis(1));
    }
    client.finish().expect("finish");
}

#[test]
fn two_streams_answer_live_queries_while_running() {
    let per_site = 5_000u64;
    let k = 2usize;
    let daemon = Daemon::bind("127.0.0.1:0", DaemonConfig::default()).expect("bind");
    let addr = daemon.local_addr();
    let mut ctrl = CtrlClient::connect(addr).expect("ctrl");
    ctrl.create("swor", k as u32, 16, "swor").expect("create");
    ctrl.create("l1", k as u32, 16, "l1:0.3,0.3")
        .expect("create");

    let l1_query = Query::parse("l1:0.3,0.3").unwrap();
    let s_eff = l1_query.sample_size(16);
    let ell = l1_query.duplication().unwrap();
    let rcfg = RuntimeConfig::default();

    // Two sites per stream, fed concurrently.
    let mut feeders = Vec::new();
    for i in 0..k {
        let swor_client = AttachClient::attach(
            addr,
            "swor",
            i,
            swor_site(&SworConfig::new(16, k), 7, i),
            &rcfg,
        )
        .expect("attach swor");
        feeders.push(thread::spawn(move || {
            feed_chunked(swor_client, i, k as u64, per_site)
        }));
        let l1_client = AttachClient::attach(
            addr,
            "l1",
            i,
            L1Site::new(&SworConfig::new(s_eff, k), ell, l1_site_seed(9, i)),
            &rcfg,
        )
        .expect("attach l1");
        feeders.push(thread::spawn(move || {
            feed_chunked(l1_client, i, k as u64, per_site)
        }));
    }

    // Interleaved live queries while both streams run: the
    // items-observed watermark must be monotone per stream, every
    // snapshot's sample must clear its own threshold u, and the L1
    // estimate must stay the right order of magnitude mid-stream (the
    // theorem's (1±ε) envelope holds per time step with prob 1−δ; with
    // ε = 0.3 we allow generous slack at arbitrary interleavings).
    let mut last_swor = 0u64;
    let mut last_l1 = 0u64;
    let mut mid_stream_seen = false;
    loop {
        let sw = ctrl
            .snapshot("swor", LiveQueryKind::CurrentSample, 0)
            .expect("live swor");
        assert!(sw.items >= last_swor, "watermark went backwards");
        last_swor = sw.items;
        assert!(sw.sample.iter().all(|kd| kd.key >= sw.u));
        assert_eq!(sw.sample.len() as u64, sw.items.min(16));

        let l1 = ctrl
            .snapshot("l1", LiveQueryKind::L1Now, 0)
            .expect("live l1");
        assert!(l1.items >= last_l1, "watermark went backwards");
        last_l1 = l1.items;
        assert_eq!(l1.ell, ell);
        if l1.items >= 1_000 && l1.items < 2 * per_site {
            mid_stream_seen = true;
            // Unit weights: true W at this instant is the watermark.
            let rel = (l1.estimate - l1.items as f64).abs() / l1.items as f64;
            assert!(
                rel < 0.75,
                "mid-stream L1 estimate off: {} vs {} items",
                l1.estimate,
                l1.items
            );
        }
        if last_swor == 2 * per_site && last_l1 == 2 * per_site {
            break;
        }
        thread::sleep(Duration::from_millis(1));
    }
    assert!(mid_stream_seen, "never observed a mid-stream L1 snapshot");
    for f in feeders {
        f.join().expect("feeder");
    }

    // window-now with an explicit window on the swor stream: only the
    // last `window` arrivals survive. Ids are arrival-interleaved across
    // the two sites, so id ≥ items − window is the survivor condition.
    let win = ctrl
        .snapshot("swor", LiveQueryKind::WindowNow, 400)
        .expect("window-now");
    let cutoff = win.items.saturating_sub(400);
    assert!(win.sample.iter().all(|kd| kd.item.id >= cutoff));

    // rhh-so-far: candidates are the top sample items by weight.
    let rhh = ctrl
        .snapshot("swor", LiveQueryKind::RhhSoFar, 0)
        .expect("rhh-so-far");
    for pair in rhh.sample.windows(2) {
        assert!(pair[0].item.weight >= pair[1].item.weight);
    }

    // Final drains: full watermark, both sites finished, tight L1.
    let fin_swor = ctrl.drain_stream("swor").expect("drain swor");
    assert_eq!(fin_swor.items, 2 * per_site);
    assert_eq!(fin_swor.sites_eof, 2);
    assert_eq!(fin_swor.sample.len(), 16);
    // An L1 stream drains to its own answer kind, not the raw sample.
    let fin_l1 = ctrl.drain_stream("l1").expect("drain l1");
    assert_eq!(fin_l1.kind, LiveQueryKind::L1Now);
    assert_eq!(fin_l1.items, 2 * per_site);
    assert_eq!(fin_l1.sample.len(), s_eff);
    let rel = (fin_l1.estimate - fin_l1.items as f64).abs() / fin_l1.items as f64;
    assert!(rel < 0.45, "final L1 estimate off: {}", fin_l1.estimate);
    assert!(daemon.shutdown().is_empty());
    assert_eq!(daemon.drained().len(), 2);
}

/// Satellite of the telemetry layer: `TAG_METRICS` scrapes answered
/// while a stream runs must be monotone (the per-stream items watermark
/// and query counter never go backwards, the report clock advances), the
/// final scrape must agree exactly with the drain snapshot's totals, and
/// the daemon-wide registry must too — it belongs to this daemon alone,
/// so a second daemon in the same process reports none of its series.
/// Site 0 detaches and reattaches after a level saturated, so the
/// registry must also count the replayed unicasts.
#[test]
fn metrics_scrapes_are_monotone_and_match_final_totals() {
    use dwrs::telemetry::{
        TraceKind, METRIC_BROADCAST_EVENTS_TOTAL, METRIC_CONNECTIONS_TOTAL,
        METRIC_DOWN_MESSAGES_TOTAL, METRIC_ITEMS_TOTAL, METRIC_LIVE_QUERIES_TOTAL,
        METRIC_QUERY_LATENCY_NS, METRIC_SCRAPES_TOTAL, METRIC_SITES_ATTACHED,
        METRIC_STALE_EARLY_TOTAL, METRIC_STALE_REGULAR_TOTAL, METRIC_STREAMS_ACTIVE,
        METRIC_UP_MESSAGES_TOTAL, METRIC_WIRE_BYTES_TOTAL,
    };

    let per_site = 4_000u64;
    let k = 2usize;
    let daemon = Daemon::bind("127.0.0.1:0", DaemonConfig::default()).expect("bind");
    let other = Daemon::bind("127.0.0.1:0", DaemonConfig::default()).expect("bind a second");
    let addr = daemon.local_addr();
    let mut ctrl = CtrlClient::connect(addr).expect("ctrl");
    ctrl.create("tele", k as u32, 8, "swor").expect("create");
    let rcfg = RuntimeConfig::default();

    let mut feeders = Vec::new();
    for i in 0..k {
        let mut client = AttachClient::attach(
            addr,
            "tele",
            i,
            swor_site(&SworConfig::new(8, k), 3, i),
            &rcfg,
        )
        .expect("attach");
        feeders.push(thread::spawn(move || {
            if i > 0 {
                return feed_chunked(client, i, k as u64, per_site);
            }
            // Half the share, a detach, a reattach, the rest. Level 0
            // saturates within the first few dozen unit items, so the
            // reattach replays that state as unicasts.
            let ids = |r: Range<u64>| r.map(|t| Item::unit(t * k as u64));
            client.feed(ids(0..per_site / 2)).expect("feed");
            let (site, _) = client.detach().expect("detach");
            let mut client = AttachClient::attach(addr, "tele", 0, site, &rcfg).expect("reattach");
            assert!(client.resumed());
            client.feed(ids(per_site / 2..per_site)).expect("feed");
            client.finish().expect("finish");
        }));
    }

    // Scrape while feeding. Each round also issues one live query so the
    // stream's latency sketch and query counter advance under our feet.
    let mut last_items = 0u64;
    let mut last_queries = 0u64;
    let mut last_now = 0u64;
    let mut queries_issued = 0u64;
    let mut mid_run_seen = false;
    loop {
        let report = ctrl.metrics(16).expect("scrape");
        assert!(report.now_nanos >= last_now, "report clock went backwards");
        assert!(report.streams_created >= 1);
        last_now = report.now_nanos;
        let sec = report
            .streams
            .iter()
            .find(|s| s.stream == "tele")
            .expect("per-stream section");
        assert_eq!(sec.query, "swor");
        assert!(sec.items >= last_items, "items watermark went backwards");
        assert!(sec.queries >= last_queries, "query counter went backwards");
        assert!(sec.queue_depth <= sec.queue_capacity);
        assert!(sec.sites_attached as usize + sec.sites_eof as usize <= k);
        if sec.items > 0 && sec.items < 2 * per_site {
            mid_run_seen = true;
        }
        let done = sec.items == 2 * per_site && sec.sites_eof as usize == k;
        last_items = sec.items;
        last_queries = sec.queries;
        if done {
            break;
        }
        ctrl.snapshot("tele", LiveQueryKind::CurrentSample, 0)
            .expect("live query");
        queries_issued += 1;
        thread::sleep(Duration::from_millis(1));
    }
    assert!(mid_run_seen, "never scraped mid-run");
    for f in feeders {
        f.join().expect("feeder");
    }

    // Final scrape: totals agree with what was fed, the latency summary
    // counts exactly the live queries we issued, and the trace ring holds
    // the stream's lifecycle in order.
    let report = ctrl.metrics(64).expect("final scrape");
    let sec = report
        .streams
        .iter()
        .find(|s| s.stream == "tele")
        .expect("per-stream section")
        .clone();
    assert_eq!(sec.items, 2 * per_site);
    assert_eq!(sec.sites_eof as usize, k);
    assert_eq!(sec.sites_attached, 0);
    assert_eq!(sec.queries, queries_issued);
    let lat = sec.latency.as_ref().expect("latency summary");
    assert_eq!(lat.count, queries_issued);
    assert!(lat.p50 > 0.0);
    assert!(lat.p99 >= lat.p50 && lat.max >= lat.p99);
    let codes: Vec<u8> = sec.events.iter().map(|e| e.code).collect();
    assert!(codes.contains(&TraceKind::Create.as_u8()), "create event");
    assert!(codes.contains(&TraceKind::Attach.as_u8()), "attach event");
    assert!(codes.contains(&TraceKind::Eof.as_u8()), "eof event");
    for w in sec.events.windows(2) {
        assert!(w[0].seq < w[1].seq, "trace seq not strictly increasing");
        assert!(w[0].nanos <= w[1].nanos, "trace time not monotone");
    }

    // The reattach came after a saturation, so it replayed one.
    let seq = |kind: TraceKind| sec.events.iter().find(|e| e.code == kind.as_u8());
    let order = (seq(TraceKind::Saturation), seq(TraceKind::Reconnect));
    assert!(
        matches!(order, (Some(s), Some(r)) if s.seq < r.seq),
        "{order:?}"
    );

    // Drain and cross-check: the scrape saw the same watermark the drain
    // snapshot reports, i.e. the telemetry path and the sampling path
    // agree on the final totals.
    let fin = ctrl.drain_stream("tele").expect("drain");
    assert_eq!(fin.items, sec.items);
    assert_eq!(u64::from(fin.sites_eof), u64::from(sec.sites_eof));

    // The daemon-wide registry holds exactly this daemon's totals.
    let report = ctrl.metrics(0).expect("post-drain scrape");
    for (name, want) in [
        (METRIC_ITEMS_TOTAL, 2 * per_site),
        (METRIC_UP_MESSAGES_TOTAL, fin.up_msgs),
        (METRIC_DOWN_MESSAGES_TOTAL, fin.down_msgs),
        (METRIC_WIRE_BYTES_TOTAL, fin.up_bytes + fin.down_bytes),
        (METRIC_BROADCAST_EVENTS_TOTAL, fin.broadcast_events),
        (METRIC_STALE_REGULAR_TOTAL, fin.stale_regular),
        (METRIC_STALE_EARLY_TOTAL, fin.stale_early),
        (METRIC_LIVE_QUERIES_TOTAL, queries_issued),
        (METRIC_QUERY_LATENCY_NS, queries_issued),
        (METRIC_SITES_ATTACHED, 0),
        (METRIC_STREAMS_ACTIVE, 0),
    ] {
        let got = report.samples.iter().find(|m| m.name == name);
        assert_eq!(got.map(|m| m.value), Some(want as f64), "{name}");
    }
    daemon.shutdown();

    // The second daemon saw one connection and one scrape: its own.
    let mut other_ctrl = CtrlClient::connect(other.local_addr()).expect("ctrl");
    let report = other_ctrl.metrics(16).expect("scrape");
    let names: Vec<&str> = report.samples.iter().map(|m| m.name.as_str()).collect();
    assert_eq!(names, [METRIC_CONNECTIONS_TOTAL, METRIC_SCRAPES_TOTAL]);
    assert!(report.samples.iter().all(|m| m.value == 1.0), "{report:?}");
    assert_eq!(report.streams_created, 0);
    assert!(report.streams.is_empty());
    let codes: Vec<u8> = report.events.iter().map(|e| e.code).collect();
    assert_eq!(codes, [TraceKind::Connection.as_u8()]);
    other.shutdown();
}

#[test]
fn reconnect_mid_stream_preserves_sample_validity() {
    let k = 2usize;
    let s = 8usize;
    let daemon = Daemon::bind("127.0.0.1:0", DaemonConfig::default()).expect("bind");
    let addr = daemon.local_addr();
    let mut ctrl = CtrlClient::connect(addr).expect("ctrl");
    ctrl.create("s", k as u32, s as u32, "swor")
        .expect("create");
    let cfg = SworConfig::new(s, k);
    let rcfg = RuntimeConfig::default();
    let skewed = |t: u64| Item::new(t, 1.0 + (t % 97) as f64);

    // Site 1 runs its whole share normally.
    let site1 = thread::spawn({
        let cfg = cfg.clone();
        move || {
            let mut c = AttachClient::attach(addr, "s", 1, swor_site(&cfg, 5, 1), &rcfg)
                .expect("attach site 1");
            c.feed((0..4_000u64).map(|t| skewed(2 * t + 1)))
                .expect("feed");
            c.finish().expect("finish");
        }
    });

    // Site 0: feed half, detach, reattach, feed the rest.
    let mut c = AttachClient::attach(addr, "s", 0, swor_site(&cfg, 5, 0), &rcfg).expect("attach");
    c.feed((0..2_000u64).map(|t| skewed(2 * t))).expect("feed");
    let (site0, _) = c.detach().expect("detach");

    // A mid-run snapshot taken while the slot is detached (site 1 may
    // still be feeding — any instant is a valid query point).
    let mid = ctrl
        .snapshot("s", LiveQueryKind::CurrentSample, 0)
        .expect("mid snapshot");
    assert!(mid.items >= 2_000);

    let mut c = AttachClient::attach(addr, "s", 0, site0, &rcfg).expect("reattach");
    assert!(c.resumed());
    assert_eq!(c.prior_items(), 2_000);
    c.feed((2_000..4_000u64).map(|t| skewed(2 * t)))
        .expect("feed");
    c.finish().expect("finish");
    site1.join().expect("site 1");

    let fin = ctrl.drain_stream("s").expect("drain");
    assert_eq!(fin.items, 8_000);
    assert_eq!(fin.sites_eof, 2);
    assert_eq!(fin.sample.len(), s);
    assert!(fin.sample.iter().all(|kd| kd.key >= fin.u));

    // Validity across the reconnect: the coordinator only ever discards
    // keys below its (monotone) threshold, so no mid-run sampled key can
    // outrank the final sample. Re-merging the mid-run snapshot through
    // the paper's mergeability operator must surface nothing new — every
    // entry of the merged top-s is an item the final sample already
    // holds (the two snapshots overlap, so ids repeat rather than
    // displace), and every mid-run item that fell out of the final
    // sample lost to a key at least as large as the final threshold.
    let merged = merge_two(&mid.sample, &fin.sample, s);
    let fin_ids: std::collections::HashSet<u64> = fin.sample.iter().map(|kd| kd.item.id).collect();
    assert!(
        merged.iter().all(|kd| fin_ids.contains(&kd.item.id)),
        "a mid-run-only key outranked the final sample after reconnect"
    );
    assert!(
        mid.sample
            .iter()
            .all(|kd| fin_ids.contains(&kd.item.id) || kd.key <= fin.u),
        "a displaced mid-run key exceeds the final threshold"
    );
    daemon.shutdown();
}
