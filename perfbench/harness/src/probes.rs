//! Per-layer probes: each times one public call over a whole input.
//!
//! The protocol probes replay a recorded lockstep execution. A recording
//! wraps the sites and coordinators of a lockstep run so that it keeps,
//! per coordinator, every up-message in arrival order, and for site 0 its
//! items and the broadcasts it received between them. Replaying those
//! inputs into fresh nodes repeats the exact execution, one layer at a
//! time.

use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::{Duration, Instant};

use dwrs_apps::L1Site;
use dwrs_core::framed::FrameCodec;
use dwrs_core::keys::assign_key;
use dwrs_core::merge::merge_samples;
use dwrs_core::swor::{DownMsg, SworConfig, SworCoordinator, UpMsg};
use dwrs_core::{Item, Keyed, Rng};
use dwrs_runtime::query::l1_site_seed;
use dwrs_runtime::{LockstepTree, Query, SampleSource, Scenario, Topology};
use dwrs_sim::{
    swor_coordinator, swor_site, tree_group_seed, CoordinatorNode, Outbox, Runner, SiteNode,
};

use crate::trace::Tracer;

/// Minimum time a micro-probe repeats its input for.
const MIN_PROBE: Duration = Duration::from_millis(30);

/// Runs `once` (which returns the units of work it did) until `MIN_PROBE`
/// has passed; returns nanoseconds per unit.
pub fn ns_per_unit(mut once: impl FnMut() -> u64) -> f64 {
    let (mut units, t) = (0u64, Instant::now());
    loop {
        units += once();
        if t.elapsed() >= MIN_PROBE || units == 0 {
            break;
        }
    }
    t.elapsed().as_nanos() as f64 / units.max(1) as f64
}

/// The protocol configuration of `sc` for a coordinator over `k` sites.
fn swor_config(sc: &Scenario, k: usize) -> SworConfig {
    let mut cfg = SworConfig::new(sc.query.sample_size(sc.s), k);
    cfg.level_sets_enabled = sc.level_sets;
    cfg
}

/// Site 0's view of a lockstep run.
#[derive(Debug, Default)]
pub struct SiteLog {
    /// The items it observed, in order.
    pub items: Vec<Item>,
    /// `(items observed before, broadcast)` for every broadcast received.
    pub downs: Vec<(usize, DownMsg)>,
    /// Up-messages it produced.
    pub ups: u64,
}

/// A site that logs its inputs when it is site 0.
struct RecSite<S> {
    inner: S,
    log: Option<Rc<RefCell<SiteLog>>>,
}

impl<S: SiteNode<Up = UpMsg, Down = DownMsg>> SiteNode for RecSite<S> {
    type Up = UpMsg;
    type Down = DownMsg;

    fn observe(&mut self, item: Item, out: &mut Vec<UpMsg>) {
        let before = out.len();
        self.inner.observe(item, out);
        if let Some(log) = &self.log {
            let mut log = log.borrow_mut();
            log.items.push(item);
            log.ups += (out.len() - before) as u64;
        }
    }

    fn receive(&mut self, msg: &DownMsg) {
        if let Some(log) = &self.log {
            let mut log = log.borrow_mut();
            let at = log.items.len();
            log.downs.push((at, *msg));
        }
        self.inner.receive(msg);
    }

    fn finish(&mut self, out: &mut Vec<UpMsg>) {
        self.inner.finish(out);
    }
}

/// A coordinator that logs every up-message it receives.
struct RecCoord {
    inner: SworCoordinator,
    log: Rc<RefCell<Vec<(usize, UpMsg)>>>,
}

impl CoordinatorNode for RecCoord {
    type Up = UpMsg;
    type Down = DownMsg;

    fn receive(&mut self, from: usize, msg: UpMsg, out: &mut Outbox<DownMsg>) {
        self.log.borrow_mut().push((from, msg));
        CoordinatorNode::receive(&mut self.inner, from, msg, out);
    }
}

impl SampleSource for RecCoord {
    fn keyed_sample(&self) -> Vec<Keyed> {
        self.inner.sample()
    }
}

/// A recorded lockstep execution.
#[derive(Debug, Default)]
pub struct Recording {
    /// Per coordinator (one, or one per tree group): its up-messages.
    pub ups: Vec<Vec<(usize, UpMsg)>>,
    /// Per coordinator: its final sample.
    pub samples: Vec<Vec<Keyed>>,
    /// Site 0 of group 0.
    pub site0: SiteLog,
    /// Up + down messages of the whole run (syncs included).
    pub msgs: u64,
}

/// Which site protocol a recording runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SiteKind {
    /// `SworSite`.
    Swor,
    /// `L1Site` with the default `l1` query's duplication.
    L1,
}

/// The node factories of a deployment: site `(group, i)` and the
/// coordinator of `group`, as `run_scenario` builds them.
pub struct Nodes {
    kind: SiteKind,
    cfg: SworConfig,
    seed: u64,
    ell: u64,
    tree: bool,
}

impl Nodes {
    /// Factories for `sc` running sites of `kind`.
    pub fn new(sc: &Scenario, kind: SiteKind) -> Nodes {
        let query = match kind {
            SiteKind::Swor => Query::Swor,
            SiteKind::L1 => Query::parse("l1").expect("default l1 query parses"),
        };
        let sc = sc.clone().with_query(query);
        let (tree, k) = match sc.topology {
            Topology::Tree { groups, .. } => (true, sc.k / groups),
            Topology::Flat => (false, sc.k),
        };
        Nodes {
            kind,
            cfg: swor_config(&sc, k),
            seed: sc.seed,
            ell: query.duplication().unwrap_or(1),
            tree,
        }
    }

    fn group_seed(&self, group: usize) -> u64 {
        if self.tree {
            tree_group_seed(self.seed, group)
        } else {
            self.seed
        }
    }

    /// Site `i` of `group`, of type `S` (which must match the kind).
    pub fn swor_site(&self, group: usize, i: usize) -> dwrs_core::swor::SworSite {
        assert_eq!(self.kind, SiteKind::Swor);
        swor_site(&self.cfg, self.group_seed(group), i)
    }

    /// L1 site `i` of `group`.
    pub fn l1_site(&self, group: usize, i: usize) -> L1Site {
        assert_eq!(self.kind, SiteKind::L1);
        L1Site::new(&self.cfg, self.ell, l1_site_seed(self.group_seed(group), i))
    }

    /// The coordinator of `group`.
    pub fn coordinator(&self, group: usize) -> SworCoordinator {
        swor_coordinator(self.cfg.clone(), self.group_seed(group))
    }

    /// The site protocol.
    pub fn kind(&self) -> SiteKind {
        self.kind
    }
}

/// Records the lockstep execution of `sc` with sites of `kind`.
pub fn record(sc: &Scenario, kind: SiteKind) -> std::io::Result<Recording> {
    let nodes = Nodes::new(sc, kind);
    match kind {
        SiteKind::Swor => record_with(sc, &nodes, |g, i| nodes.swor_site(g, i)),
        SiteKind::L1 => record_with(sc, &nodes, |g, i| nodes.l1_site(g, i)),
    }
}

fn record_with<S>(
    sc: &Scenario,
    nodes: &Nodes,
    mk_site: impl Fn(usize, usize) -> S,
) -> std::io::Result<Recording>
where
    S: SiteNode<Up = UpMsg, Down = DownMsg>,
{
    let (groups, sync_every) = match sc.topology {
        Topology::Tree { groups, sync_every } => (groups, Some(sync_every)),
        Topology::Flat => (1, None),
    };
    let k_per = sc.k / groups;
    let site_log = Rc::new(RefCell::new(SiteLog::default()));
    let coord_logs: Vec<_> = (0..groups)
        .map(|_| Rc::new(RefCell::new(Vec::new())))
        .collect();
    let mut runners: Vec<Runner<RecSite<S>, RecCoord>> = (0..groups)
        .map(|g| {
            let sites = (0..k_per)
                .map(|i| RecSite {
                    inner: mk_site(g, i),
                    log: (g == 0 && i == 0).then(|| Rc::clone(&site_log)),
                })
                .collect();
            let coord = RecCoord {
                inner: nodes.coordinator(g),
                log: Rc::clone(&coord_logs[g]),
            };
            Runner::new(coord, sites)
        })
        .collect();
    let mut partitioner = sc.partitioner();
    let source = sc.source()?;
    let (msgs, samples) = match sync_every {
        None => {
            let mut runner = runners.pop().expect("one group");
            for item in source {
                runner.step(partitioner.next_site(), item);
            }
            runner.finish();
            (
                runner.metrics.total(),
                vec![runner.coordinator.inner.sample()],
            )
        }
        Some(sync_every) => {
            let s_eff = sc.query.sample_size(sc.s);
            let mut tree = LockstepTree::new(s_eff, sync_every, runners);
            for item in source {
                let site = partitioner.next_site();
                tree.observe(site / k_per, site % k_per, item);
            }
            let out = tree.finish();
            (out.metrics.total(), out.group_samples)
        }
    };
    let ups = coord_logs.iter().map(|l| l.take()).collect();
    let site0 = site_log.take();
    Ok(Recording {
        ups,
        samples,
        site0,
        msgs,
    })
}

/// Key bits of a sample, for exact comparisons.
pub fn key_bits(sample: &[Keyed]) -> Vec<(u64, u64)> {
    sample
        .iter()
        .map(|kd| (kd.item.id, kd.key.to_bits()))
        .collect()
}

/// Replays site 0's recorded inputs into a fresh site: returns ns per
/// `observe`, and a problem if it did not send the recorded number of
/// up-messages.
pub fn replay_site(rec: &Recording, nodes: &Nodes) -> (f64, Vec<String>) {
    let mut problems = Vec::new();
    let ns = match nodes.kind() {
        SiteKind::Swor => replay_site_with(&rec.site0, || nodes.swor_site(0, 0), &mut problems),
        SiteKind::L1 => replay_site_with(&rec.site0, || nodes.l1_site(0, 0), &mut problems),
    };
    (ns, problems)
}

fn replay_site_with<S>(log: &SiteLog, mk: impl Fn() -> S, problems: &mut Vec<String>) -> f64
where
    S: SiteNode<Up = UpMsg, Down = DownMsg>,
{
    let mut out: Vec<UpMsg> = Vec::with_capacity(64);
    let mut first = true;
    ns_per_unit(|| {
        let mut site = mk();
        let (mut ups, mut d) = (0u64, 0usize);
        for (t, item) in log.items.iter().enumerate() {
            while d < log.downs.len() && log.downs[d].0 == t {
                site.receive(&log.downs[d].1);
                d += 1;
            }
            site.observe(*item, &mut out);
            ups += out.len() as u64;
            out.clear();
        }
        black_box(&site);
        if std::mem::take(&mut first) && ups != log.ups {
            problems.push(format!(
                "site replay sent {ups} up-messages, the recording {}",
                log.ups
            ));
        }
        log.items.len() as u64
    })
}

/// Replays every coordinator's recorded up-messages into fresh
/// coordinators: returns ns per `receive` and any divergence from the
/// recorded final samples.
pub fn replay_coordinators(rec: &Recording, nodes: &Nodes) -> (f64, Vec<String>) {
    let mut problems = Vec::new();
    let mut first = true;
    let ns = ns_per_unit(|| {
        let mut msgs = 0u64;
        for (g, log) in rec.ups.iter().enumerate() {
            let mut coord = nodes.coordinator(g);
            let mut outbox = Outbox::new();
            for &(from, msg) in log {
                CoordinatorNode::receive(&mut coord, from, msg, &mut outbox);
            }
            msgs += log.len() as u64;
            if first && key_bits(&coord.sample()) != key_bits(&rec.samples[g]) {
                problems.push(format!("coordinator {g} replay ended on another sample"));
            }
        }
        first = false;
        msgs
    });
    (ns, problems)
}

/// What the codec probe measured.
#[derive(Debug)]
pub struct Codec {
    /// ns per `FrameCodec::encode`.
    pub encode_ns: f64,
    /// ns per `FrameCodec::decode`.
    pub decode_ns: f64,
    /// Encoded bytes per message.
    pub bytes_per_msg: f64,
}

/// Encodes and decodes every recorded up-message with `FrameCodec`.
pub fn codec(rec: &Recording, tracer: &mut Tracer) -> (Codec, Vec<String>) {
    let msgs: Vec<UpMsg> = rec.ups.iter().flatten().map(|&(_, m)| m).collect();
    let mut buf = Vec::with_capacity(msgs.len() * 32);
    let encode_ns = tracer.span("codec.encode", |_| {
        ns_per_unit(|| {
            buf.clear();
            for m in &msgs {
                m.encode(&mut buf);
            }
            msgs.len() as u64
        })
    });
    let mut problems = Vec::new();
    let mut first = true;
    tracer.enter("codec.decode");
    let decode_ns = ns_per_unit(|| {
        let (mut off, mut i) = (0usize, 0usize);
        while off < buf.len() {
            match UpMsg::decode(&buf[off..]) {
                Ok((m, used)) => {
                    if first && msgs.get(i) != Some(&m) {
                        problems.push(format!("message {i} did not round-trip"));
                        break;
                    }
                    black_box(m);
                    off += used;
                    i += 1;
                }
                Err(e) => {
                    problems.push(format!("decode failed at byte {off}: {e:?}"));
                    break;
                }
            }
        }
        first = false;
        i as u64
    });
    tracer.exit();
    let bytes_per_msg = buf.len() as f64 / msgs.len().max(1) as f64;
    (
        Codec {
            encode_ns,
            decode_ns,
            bytes_per_msg,
        },
        problems,
    )
}

/// `merge_samples` over aggregator-sized parts: the recorded group
/// samples of a tree, or for a flat deployment two top-`s` samples keyed
/// from the workload's own items. Returns ns per merged entry.
pub fn merge(sc: &Scenario, rec: &Recording) -> std::io::Result<(f64, Vec<String>)> {
    let s = sc.query.sample_size(sc.s);
    let parts: Vec<Vec<Keyed>> = if rec.samples.len() > 1 {
        rec.samples.clone()
    } else {
        let mut rng = Rng::new(sc.seed ^ 0x4D45_5247);
        let keyed: Vec<Keyed> = sc
            .source()?
            .take(8 * s)
            .map(|it| assign_key(it, &mut rng))
            .collect();
        keyed
            .chunks(4 * s)
            .map(|c| merge_samples(&[c], s))
            .collect()
    };
    let refs: Vec<&[Keyed]> = parts.iter().map(Vec::as_slice).collect();
    let entries: usize = parts.iter().map(Vec::len).sum();
    let mut problems = Vec::new();
    let mut all: Vec<Keyed> = parts.concat();
    all.sort_by(|a, b| b.key.total_cmp(&a.key));
    all.truncate(s);
    let ns = ns_per_unit(|| {
        let merged = merge_samples(black_box(&refs), s);
        if problems.is_empty() && key_bits(&merged) != key_bits(&all) {
            problems.push("merge_samples disagrees with a full sort".to_string());
        }
        entries as u64
    });
    Ok((ns, problems))
}
