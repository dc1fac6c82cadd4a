//! The engine workloads: timed `run_scenario` repeats, their correctness
//! gate, and the engine-only runs over pre-partitioned input.

use std::hint::black_box;
use std::time::{Duration, Instant};

use dwrs_core::swor::{DownMsg, UpMsg};
use dwrs_core::{Item, Keyed};
use dwrs_runtime::{
    run_epoll, run_scenario, run_threads, run_tree_nodes, EngineKind, ItemFeed, QueryAnswer,
    RunReport, Scenario, Topology, TreeTopology, VecFeed,
};
use dwrs_sim::SiteNode;

use crate::probes::{Nodes, SiteKind};
use crate::sys;
use crate::trace::Tracer;
use crate::workload::Outcome;

/// `RunReport::live_snapshot` calls timed after each repeat.
const SNAPSHOTS_PER_RUN: usize = 400;

/// The correctness gate for one `run_scenario` report: invariants hold,
/// every item was streamed, the sample holds the effective `s`, and an L1
/// estimate stays within five standard errors (`5/√s`) of the exact
/// weight.
pub fn report_problems(rep: &RunReport, items: u64) -> Vec<String> {
    let mut v = rep.violations.clone();
    if rep.items != items {
        v.push(format!("streamed {} items, expected {items}", rep.items));
    }
    let want = if items == 0 { 0 } else { rep.s };
    if rep.sample.len() != want {
        v.push(format!(
            "sample holds {} entries, effective s is {want}",
            rep.sample.len()
        ));
    }
    if let QueryAnswer::L1 { rel_error, .. } = rep.answer {
        let envelope = 5.0 / (rep.s as f64).sqrt();
        if items > 0 && rel_error > envelope {
            v.push(format!(
                "L1 relative error {rel_error:.4} exceeds the 5/sqrt(s) envelope {envelope:.4}"
            ));
        }
    }
    v
}

/// Runs `sc` once under the gate; returns the report and its wall time.
pub fn checked_run(sc: &Scenario, what: &str, out: &mut Outcome) -> Option<(RunReport, f64)> {
    let t = Instant::now();
    let res = run_scenario(sc);
    let wall = t.elapsed().as_secs_f64();
    match res {
        Ok(rep) => {
            let ok = out.check(what, report_problems(&rep, sc.n));
            ok.then_some((rep, wall))
        }
        Err(e) => {
            out.fail(what, e);
            None
        }
    }
}

/// One timed repeat of an engine workload.
#[derive(Clone, Copy, Debug)]
pub struct Repeat {
    /// Items ÷ `run_scenario` wall time.
    pub items_per_s: f64,
    /// Up + down messages.
    pub msgs: u64,
    /// CPU seconds of the whole process.
    pub cpu_s: f64,
    /// Peak RSS of this run alone.
    pub peak_rss_bytes: u64,
}

/// Timed repeats of an engine workload and what they measured.
#[derive(Debug, Default)]
pub struct Repeats {
    /// One entry per repeat that passed the gate.
    pub runs: Vec<Repeat>,
    /// `live_snapshot` latencies in microseconds, over every repeat.
    pub query_us: Vec<f64>,
    /// Syscall counters over every repeat.
    pub io: sys::Io,
    /// Context switches over every repeat.
    pub ctx_switches: u64,
    /// Items over every repeat.
    pub items: u64,
}

/// Repeats `run_scenario(sc)` until `budget` has passed and at least
/// `min_runs` ran. Each repeat starts from a reset peak RSS, so its
/// reading covers that run alone.
pub fn repeats(
    sc: &Scenario,
    budget: Duration,
    min_runs: usize,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Repeats {
    let mut reps = Repeats::default();
    let t0 = Instant::now();
    let mut attempts = 0;
    while attempts < min_runs || t0.elapsed() < budget {
        attempts += 1;
        if let Err(e) = sys::reset_peak_rss() {
            out.fail("reset peak rss", e);
            break;
        }
        let io0 = sys::io(None).unwrap_or_default();
        let u0 = sys::usage_self();
        let res = tracer.span("run_scenario", |_| checked_run(sc, "run_scenario", out));
        let u = sys::usage_self().since(&u0);
        reps.io.add(&sys::io(None).unwrap_or_default().since(&io0));
        reps.ctx_switches += u.ctx_switches;
        let Some((rep, wall)) = res else { continue };
        let peak = match sys::peak_rss_bytes(None) {
            Ok(p) => p,
            Err(e) => {
                out.fail("peak rss", e);
                continue;
            }
        };
        for _ in 0..SNAPSHOTS_PER_RUN {
            let t = Instant::now();
            black_box(rep.live_snapshot());
            reps.query_us.push(t.elapsed().as_nanos() as f64 / 1e3);
        }
        reps.items += rep.items;
        reps.runs.push(Repeat {
            items_per_s: rep.items as f64 / wall,
            msgs: rep.metrics.total(),
            cpu_s: u.cpu_s,
            peak_rss_bytes: peak,
        });
    }
    reps
}

/// Splits `sc`'s stream into per-site vectors with its own partitioner.
pub fn partition(sc: &Scenario) -> std::io::Result<Vec<Vec<Item>>> {
    let mut parts: Vec<Vec<Item>> = vec![Vec::new(); sc.k];
    let mut partitioner = sc.partitioner();
    for item in sc.source()? {
        parts[partitioner.next_site()].push(item);
    }
    Ok(parts)
}

/// Which engine an engine-only run uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineOnly {
    /// `run_threads`, flat.
    Threads,
    /// `run_epoll` over `VecFeed`s, flat.
    Epoll,
    /// `run_tree_nodes` on threads.
    Tree,
}

impl EngineOnly {
    /// The engine-only call matching `sc`.
    pub fn of(sc: &Scenario) -> EngineOnly {
        match (sc.engine, sc.topology) {
            (_, Topology::Tree { .. }) => EngineOnly::Tree,
            (EngineKind::Epoll, _) => EngineOnly::Epoll,
            _ => EngineOnly::Threads,
        }
    }
}

/// Runs the protocol of `sc` on `engine` over pre-partitioned per-site
/// vectors (no generator, no dispatcher); returns the wall time and the
/// final sample.
pub fn engine_only(
    sc: &Scenario,
    engine: EngineOnly,
    kind: SiteKind,
    parts: Vec<Vec<Item>>,
) -> Result<(f64, Vec<Keyed>), String> {
    let nodes = Nodes::new(sc, kind);
    match kind {
        SiteKind::Swor => run_nodes(sc, engine, &nodes, |g, i| nodes.swor_site(g, i), parts),
        SiteKind::L1 => run_nodes(sc, engine, &nodes, |g, i| nodes.l1_site(g, i), parts),
    }
}

fn run_nodes<S>(
    sc: &Scenario,
    engine: EngineOnly,
    nodes: &Nodes,
    mk_site: impl Fn(usize, usize) -> S,
    parts: Vec<Vec<Item>>,
) -> Result<(f64, Vec<Keyed>), String>
where
    S: SiteNode<Up = UpMsg, Down = DownMsg> + Send,
{
    let t = Instant::now();
    let sample = match engine {
        EngineOnly::Threads => {
            let sites = (0..sc.k).map(|i| mk_site(0, i)).collect();
            let out = run_threads(sites, nodes.coordinator(0), parts, &sc.runtime)
                .map_err(|e| e.to_string())?;
            out.coordinator.sample()
        }
        EngineOnly::Epoll => {
            let sites = (0..sc.k).map(|i| mk_site(0, i)).collect();
            let feeds: Vec<Box<dyn ItemFeed>> = parts
                .into_iter()
                .map(|p| Box::new(VecFeed::new(p)) as Box<dyn ItemFeed>)
                .collect();
            let out = run_epoll(sites, nodes.coordinator(0), feeds, &sc.runtime)
                .map_err(|e| e.to_string())?;
            out.coordinator.sample()
        }
        EngineOnly::Tree => {
            let Topology::Tree { groups, sync_every } = sc.topology else {
                return Err("tree engine on a flat scenario".into());
            };
            let k_per = sc.k / groups;
            let topo = TreeTopology::new(groups, k_per, sync_every);
            let mut it = parts.into_iter();
            let grouped: Vec<Vec<Vec<Item>>> = (0..groups)
                .map(|_| it.by_ref().take(k_per).collect())
                .collect();
            let s_eff = sc.query.sample_size(sc.s);
            let out = run_tree_nodes(
                EngineKind::Threads,
                s_eff,
                &topo,
                &mk_site,
                |g| nodes.coordinator(g),
                grouped,
                &sc.runtime,
            )
            .map_err(|e| e.to_string())?;
            out.root_sample
        }
    };
    Ok((t.elapsed().as_secs_f64(), sample))
}
