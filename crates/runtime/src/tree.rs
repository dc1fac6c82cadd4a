//! Hierarchical fan-in topology.
//!
//! The paper's model has one coordinator; large fleets in practice hang
//! sites off regional aggregators that a root merges. The flat engine
//! ([`crate::engine`]) runs `k` sites against one coordinator; this module
//! runs the two-level tree — `g` groups of `k` sites, each group running
//! its **full site/coordinator protocol** against its own *aggregator*,
//! and a *root merger* holding the latest [`SyncMsg`] sample from every
//! group. Precision-sampling samples are mergeable
//! (`dwrs_core::merge`): the top-`s` of a union of top-`s` keyed samples
//! over disjoint streams is a weighted SWOR of the union, so the root's
//! sample is an exact weighted SWOR of everything the groups had seen as
//! of their last syncs — bounded staleness traded against the extra
//! `g·s/sync_every` message rate.
//!
//! [`LockstepTree`] is the single-threaded specification of the topology;
//! [`run_tree_nodes`] runs the identical tree — same per-group seeding,
//! same [`SyncMsg`] frames, same sync metering — concurrently, on the
//! threads or the epoll substrate:
//!
//! ```text
//!   group 0: site tasks ──►┐
//!                          ├─► aggregator 0 ──┐  SyncMsg every
//!   group 1: site tasks ──►┤                  │  `sync_every` items
//!                          ├─► aggregator 1 ──┼─► root merger
//!        ...               │       ...        │   (merge_samples)
//!   group g-1: sites ... ──┴─► aggregator g-1─┘
//!
//!   every group's sites      one thread per      one thread
//!   share the site pool      aggregator
//! ```
//!
//! Both hops reuse the existing transport layer, and the aggregator→root
//! hop is *the same up-path abstraction* as a site link, instantiated at
//! `U = SyncMsg`. The sites of every group are tasks on the one site pool
//! both engines share ([`crate::engine`]), over credit-bound in-process
//! channels on threads and reactor connections on epoll. The `g` root
//! links are blocking: bounded in-process [`crate::transport`] channels
//! on threads, the socket halves of [`crate::tcp`] on epoll; the `HELLO`
//! handshake, batch framing, fault frames and backpressure discipline
//! all carry over unchanged.
//!
//! # Deadlock freedom across two hops
//!
//! The invariant of the flat engine generalizes tier-wise. The
//! site→aggregator path is bounded by each group's credits (a site task
//! stops pulling input, never blocks its worker) and the aggregator→root
//! queue by blocking sends; every down path is unbounded and eagerly
//! drained. The root never sends, so it always returns to draining its
//! queue; hence a blocked aggregator→root send always unblocks, hence the
//! aggregator always returns to taking its sites' frames, hence their
//! credits always come back. No cycle of waits can form.
//!
//! # Shutdown ordering
//!
//! Deterministic two-tier drain, strictly ordered per group:
//!
//! 1. each site flushes its final partial batch (plus its residual item
//!    count) and sends `Eof`;
//! 2. once every site of a group reported `Eof`, the aggregator closes its
//!    down links, performs one **final sync** — making the root's view of
//!    that group exact — and sends its own `Eof` up;
//! 3. the root drains until every group reported `Eof`, then merges.
//!
//! # Bounded staleness
//!
//! An aggregator syncs as soon as its item watermark (the per-frame counts
//! each site task ships) has advanced `sync_every` items since the
//! previous sync. Watermarks move in frame granularity, so
//! the lag at a sync trigger is bounded by `sync_every - 1` plus the item
//! window of the frame that crossed the threshold — recorded per group in
//! [`GroupStats`] and asserted by the tree equivalence suite. After
//! shutdown the root is exact: the final sync covers every item.

use std::thread;

use dwrs_core::merge::merge_samples;
use dwrs_core::swor::{SworCoordinator, SyncMsg};
use dwrs_core::{Item, Keyed};
use dwrs_sim::{CoordinatorNode, Meter, Metrics, NoDown, Outbox, SiteNode};

use crate::config::RuntimeConfig;
use crate::driver::EngineKind;
use crate::engine::{
    first_site_panic, join_serve, serve_sites, vec_feeds, ItemFeed, Pool, RuntimeError, SiteLink,
    SiteTask,
};
use crate::transport::{
    channel_links, channel_wiring, CoordEndpoint, SiteEndpoint, TransportError, UpFrame,
};

/// Shape of a two-level fan-in deployment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TreeTopology {
    /// Number of groups `g` (one aggregator each).
    pub groups: usize,
    /// Sites per group `k` (the intra-group protocol runs with this `k`).
    pub k_per_group: usize,
    /// An aggregator ships its sample to the root every `sync_every` items
    /// its group processes.
    pub sync_every: u64,
}

impl TreeTopology {
    /// A `groups × k_per_group` tree syncing every `sync_every` items.
    pub fn new(groups: usize, k_per_group: usize, sync_every: u64) -> Self {
        assert!(groups >= 1, "need at least one group");
        assert!(k_per_group >= 1, "need at least one site per group");
        assert!(sync_every >= 1, "sync period must be at least 1");
        Self {
            groups,
            k_per_group,
            sync_every,
        }
    }

    /// Total number of leaf sites `g · k`.
    pub fn total_sites(&self) -> usize {
        self.groups * self.k_per_group
    }
}

/// Per-group bookkeeping an aggregator hands back, used by the
/// bounded-staleness assertions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GroupStats {
    /// Items the group's sites reported (watermark at shutdown).
    pub items: u64,
    /// Aggregator→root syncs performed (including the final sync).
    pub syncs: u64,
    /// Largest item watermark lag reached before a sync fired. Bounded by
    /// `sync_every - 1 + max_frame_items` (see module docs).
    pub max_unsynced: u64,
    /// Largest single-frame item window received from a site.
    pub max_frame_items: u64,
    /// Stale regular messages the group's aggregator received (see
    /// [`SampleSource::stale_counts`]).
    pub stale_regular: u64,
    /// Stale early messages the group's aggregator received.
    pub stale_early: u64,
}

/// Everything a completed tree run hands back.
#[derive(Debug)]
pub struct TreeOutput {
    /// The root's merged sample: an exact weighted SWOR of the full stream
    /// (every group's final sync covers its whole substream).
    pub root_sample: Vec<Keyed>,
    /// Each group's last-synced sample, in group order.
    pub group_samples: Vec<Vec<Keyed>>,
    /// All tiers' accounting merged into one paper-accounting total: site
    /// upstream traffic, aggregator downstream traffic, and one `"sync"`
    /// message per synced sample entry.
    pub metrics: Metrics,
    /// Per-group staleness/cadence bookkeeping, in group order. (Lockstep
    /// runs report `max_frame_items = 1`: watermarks advance per item.)
    pub group_stats: Vec<GroupStats>,
    /// Root-side log of `(group, items_covered)` per received sync, in
    /// arrival order. Empty for lockstep runs.
    pub sync_log: Vec<(usize, u64)>,
}

/// A coordinator that can expose its current keyed sample for a root sync
/// (implemented by the weighted-SWOR coordinator; any mergeable-sample
/// protocol can opt in).
pub trait SampleSource {
    /// The node's current keyed sample (its top-`s`).
    fn keyed_sample(&self) -> Vec<Keyed>;

    /// The node's stale up-message counts so far, `(regular, early)`:
    /// messages a site holding the node's current state would not have
    /// sent (see `CoordStats::stale_regular`). Zero for protocols that do
    /// not classify their messages.
    fn stale_counts(&self) -> (u64, u64) {
        (0, 0)
    }
}

impl SampleSource for SworCoordinator {
    fn keyed_sample(&self) -> Vec<Keyed> {
        self.sample()
    }

    fn stale_counts(&self) -> (u64, u64) {
        (self.stats.stale_regular, self.stats.stale_early)
    }
}

/// Largest candidate count a window aggregator syncs in one frame: what
/// fits a `MAX_FRAME_LEN` sync payload (17-byte header + 24 bytes per
/// entry, with slack for the batch wrapper). ~43k entries — far above the
/// expected `O(s·log(window/s))` retained-set size for any `s` the epoll
/// tree admits; only adversarially ordered keys (a near-monotone key
/// stream, whose undominated set is the whole window) ever reach it.
const MAX_WINDOW_SYNC_ENTRIES: usize = (dwrs_core::framed::MAX_FRAME_LEN as usize - 64) / 24;

impl SampleSource for dwrs_apps::WindowCoordinator {
    /// Aggregators sync their **un-truncated** in-window candidate set:
    /// the group's watermark lags the global one, so a premature local
    /// top-`s` cut could let globally-expired entries displace candidates
    /// the root still needs. The root applies the global window cutoff
    /// and the final top-`s` (`Query::SlidingWindow`'s tree answer).
    /// Only the frame-cap backstop `MAX_WINDOW_SYNC_ENTRIES` truncates
    /// (keeping the largest keys), so the sync always fits the framed
    /// transport.
    fn keyed_sample(&self) -> Vec<Keyed> {
        let mut entries = self.window_entries();
        if entries.len() > MAX_WINDOW_SYNC_ENTRIES {
            entries.sort_by(|a, b| b.key.total_cmp(&a.key));
            entries.truncate(MAX_WINDOW_SYNC_ENTRIES);
        }
        entries
    }
}

/// Builds one group's sync from its aggregator's current sample and
/// meters it as the paper accounts it (one message per synced entry,
/// exact wire bytes). Every tree substrate — lockstep and concurrent —
/// syncs through here, so their accounting cannot drift apart.
fn metered_sync<C: SampleSource>(
    node: &C,
    group: usize,
    watermark: u64,
    metrics: &mut Metrics,
) -> SyncMsg {
    let msg = SyncMsg {
        group: group as u32,
        items: watermark,
        sample: node.keyed_sample(),
    };
    metrics.count_up(Meter::kind(&msg), msg.units(), msg.wire_bytes());
    msg
}

/// Fails fast, before any thread or socket exists, when a sync of `s`
/// entries cannot fit one frame: a sync frame carries the whole sample
/// (9-byte batch header + 17-byte `SyncMsg` header + 24 bytes per entry)
/// and the framed transport caps payloads at `MAX_FRAME_LEN`. Only the
/// epoll tree's framed root hop has this limit; the channel engine has
/// none.
pub(crate) fn check_sync_fits_frame(s: usize) -> Result<(), RuntimeError> {
    let max_sync_payload = 9 + 17 + 24 * s;
    let frame_cap = dwrs_core::framed::MAX_FRAME_LEN as usize;
    if max_sync_payload > frame_cap {
        let max_s = (frame_cap - 9 - 17) / 24;
        return Err(RuntimeError::Transport(format!(
            "sample size {s} needs {max_sync_payload}-byte sync frames, over the \
             {frame_cap}-byte framed-transport cap; the epoll tree supports s <= {max_s}"
        )));
    }
    Ok(())
}

/// Ships one metered sync to the root.
fn sync_to_root<C: SampleSource>(
    node: &C,
    root: &mut dyn crate::transport::BatchSender<SyncMsg>,
    group: usize,
    watermark: u64,
    window: u64,
    metrics: &mut Metrics,
) -> Result<(), TransportError> {
    let msg = metered_sync(node, group, watermark, metrics);
    root.send(UpFrame::Batch {
        msgs: vec![msg],
        items: window,
    })
}

/// Drives one group's aggregator: the coordinators' loop
/// ([`serve_sites`]: receive site batches, route broadcasts) plus the
/// root-sync cadence and the final-sync/`Eof` shutdown handshake. Returns
/// the aggregator's metrics (downstream routing + sync tier) and its
/// [`GroupStats`].
pub(crate) fn aggregator_loop<C>(
    node: &mut C,
    endpoint: CoordEndpoint<C::Up, C::Down>,
    mut root: SiteEndpoint<SyncMsg, NoDown>,
    group: usize,
    sync_every: u64,
) -> Result<(Metrics, GroupStats), RuntimeError>
where
    C: CoordinatorNode + SampleSource,
{
    let mut metrics = Metrics::new();
    let mut stats = GroupStats::default();
    let mut pending = 0u64;
    let fault = serve_sites(node, endpoint, &mut metrics, |node, items, metrics| {
        pending += items;
        stats.items += items;
        stats.max_frame_items = stats.max_frame_items.max(items);
        if pending >= sync_every {
            stats.max_unsynced = stats.max_unsynced.max(pending);
            let window = std::mem::take(&mut pending);
            sync_to_root(node, &mut *root.up, group, stats.items, window, metrics)?;
            stats.syncs += 1;
        }
        Ok(())
    })?;
    if let Some((site, e)) = fault {
        // Propagate the failure up so the root terminates with a
        // diagnostic instead of waiting for a sync that never comes.
        let e = format!("group {group}, site {site}: {e}");
        let _ = root.up.send(UpFrame::Fault(e.clone()));
        root.up.close();
        return Err(RuntimeError::Transport(e));
    }
    // Final sync (shutdown phase 2): makes the root's view of this group
    // exact, then half-close the root link.
    stats.max_unsynced = stats.max_unsynced.max(pending);
    sync_to_root(
        node,
        &mut *root.up,
        group,
        stats.items,
        pending,
        &mut metrics,
    )?;
    stats.syncs += 1;
    root.up.send(UpFrame::Eof)?;
    root.up.close();
    drop(root.up);
    // Drain the (empty) root→aggregator path until the root closes it, so
    // shutdown stays ordered even if a future root gains a down path.
    while root.down.recv().is_ok() {}
    (stats.stale_regular, stats.stale_early) = node.stale_counts();
    Ok((metrics, stats))
}

/// What the root merger hands back: each group's latest sample plus the
/// `(group, items_covered)` watermark log in arrival order.
type RootResult = Result<(Vec<Vec<Keyed>>, Vec<(usize, u64)>), RuntimeError>;

/// The root merger, a coordinator whose sites are the group aggregators:
/// it keeps each group's latest sync and logs its coverage watermark.
struct RootMerger {
    samples: Vec<Vec<Keyed>>,
    log: Vec<(usize, u64)>,
    /// The first sync that arrived on another group's link.
    misrouted: Option<String>,
}

impl CoordinatorNode for RootMerger {
    type Up = SyncMsg;
    type Down = NoDown;
    fn receive(&mut self, from: usize, msg: SyncMsg, _out: &mut Outbox<NoDown>) {
        let gi = msg.group as usize;
        if gi != from || gi >= self.samples.len() {
            let e = format!("sync for group {gi} arrived on group {from}'s link");
            self.misrouted.get_or_insert(e);
            return;
        }
        self.log.push((gi, msg.items));
        self.samples[gi] = msg.sample;
    }
}

/// Drives the root merger through the coordinators' loop
/// ([`serve_sites`]) until every group reports `Eof`. Syncs are
/// sender-metered (by the aggregators), so the root contributes no
/// metrics of its own.
pub(crate) fn root_loop(endpoint: CoordEndpoint<SyncMsg, NoDown>) -> RootResult {
    let mut root = RootMerger {
        samples: vec![Vec::new(); endpoint.num_sites()],
        log: Vec::new(),
        misrouted: None,
    };
    let fault = serve_sites(&mut root, endpoint, &mut Metrics::new(), |_, _, _| Ok(()))?;
    match fault
        .map(|(from, e)| format!("group {from}: {e}"))
        .or(root.misrouted)
    {
        Some(e) => Err(RuntimeError::Transport(e)),
        None => Ok((root.samples, root.log)),
    }
}

/// One group of a concurrent tree before it starts: its aggregator, the
/// aggregator's end of its sites' links, and its link to the root.
pub(crate) type Group<A> = (
    A,
    CoordEndpoint<<A as CoordinatorNode>::Up, <A as CoordinatorNode>::Down>,
    SiteEndpoint<SyncMsg, NoDown>,
);

/// Runs a concurrent fan-in tree: the sites as `tasks` on `pool`, each
/// group's aggregator and the root merger on threads of their own, and
/// `serve` (the epoll engine's reactor) on another. Then joins them in
/// the one error priority both engines share — panicked sites by global
/// index, then aggregators, then the root, then `serve`, then transport
/// errors tier by tier — and merges every tier's metrics.
pub(crate) fn run_tree_pool<S, A, L, F>(
    s: usize,
    sync_every: u64,
    pool: Pool,
    tasks: Vec<SiteTask<S, L>>,
    groups: Vec<Group<A>>,
    root_ep: CoordEndpoint<SyncMsg, NoDown>,
    serve: Option<F>,
) -> Result<TreeOutput, RuntimeError>
where
    S: SiteNode + Send,
    S::Up: Send,
    A: CoordinatorNode<Up = S::Up, Down = S::Down> + SampleSource + Send,
    L: SiteLink<S> + Send,
    F: FnOnce() -> Result<(), RuntimeError> + Send,
{
    type AggRes = Result<(Metrics, GroupStats), RuntimeError>;
    let (serve_res, agg_res, root_res, slots) = thread::scope(|scope| {
        let serve = serve.map(|f| scope.spawn(f));
        let agg_handles: Vec<thread::ScopedJoinHandle<'_, AggRes>> = groups
            .into_iter()
            .enumerate()
            .map(|(gi, (mut aggregator, agg_ep, root_link))| {
                scope.spawn(move || {
                    aggregator_loop(&mut aggregator, agg_ep, root_link, gi, sync_every)
                })
            })
            .collect();
        let root = scope.spawn(move || root_loop(root_ep));
        let slots = pool.run(tasks);
        let agg_res: Vec<_> = agg_handles.into_iter().map(|h| h.join()).collect();
        (serve.map(|h| h.join()), agg_res, root.join(), slots)
    });

    first_site_panic(&slots)?;
    if let Some(gi) = agg_res.iter().position(Result::is_err) {
        return Err(RuntimeError::AggregatorPanicked(gi));
    }
    let root_out = root_res.map_err(|_| RuntimeError::RootPanicked)?;
    // A reactor failure (an FdExhausted, say) is the root cause of any
    // fault the tiers then saw.
    join_serve(serve_res)?;

    let mut metrics = Metrics::new();
    for slot in slots {
        let (_site, site_metrics) = slot.expect("checked above")?;
        metrics.merge(&site_metrics);
    }
    let mut group_stats = Vec::with_capacity(agg_res.len());
    for res in agg_res {
        let (agg_metrics, stats) = res.expect("panics handled above")?;
        metrics.merge(&agg_metrics);
        group_stats.push(stats);
    }
    let (group_samples, sync_log) = root_out?;
    let parts: Vec<&[Keyed]> = group_samples.iter().map(Vec::as_slice).collect();
    let root_sample = merge_samples(&parts, s);
    Ok(TreeOutput {
        root_sample,
        group_samples,
        metrics,
        group_stats,
        sync_log,
    })
}

/// Runs a full fan-in tree on the site pool over in-process channels:
/// one credit-bound site wiring per group, plus the aggregator→root
/// wiring, a bounded blocking channel. Generic over the protocol —
/// `mk_site(group, site)` and `mk_aggregator(group)` build the group
/// deployments (any [`SiteNode`]/[`CoordinatorNode`]+[`SampleSource`]
/// pair); `feeds[gi][i]` is site `i` of group `gi`'s input. The threads
/// arm of [`run_tree_nodes`] and of the scenario driver.
pub(crate) fn run_tree_threads<S, A>(
    s: usize,
    topo: &TreeTopology,
    mut mk_site: impl FnMut(usize, usize) -> S,
    mut mk_aggregator: impl FnMut(usize) -> A,
    feeds: Vec<Vec<Box<dyn ItemFeed>>>,
    cfg: &RuntimeConfig,
) -> Result<TreeOutput, RuntimeError>
where
    S: SiteNode + Send,
    S::Up: Send + 'static,
    S::Down: Clone + Send + 'static,
    A: CoordinatorNode<Up = S::Up, Down = S::Down> + SampleSource + Send,
{
    let (g, k) = (topo.groups, topo.k_per_group);
    assert_eq!(feeds.len(), g, "one feed block per group");
    let pool = Pool::new(g * k)?;
    let (root_links, root_ep) = channel_wiring::<SyncMsg, NoDown>(g, cfg.queue_capacity);
    let mut tasks = Vec::with_capacity(g * k);
    let mut groups = Vec::with_capacity(g);
    for (gi, (group_feeds, root_link)) in feeds.into_iter().zip(root_links).enumerate() {
        assert_eq!(group_feeds.len(), k, "one stream partition per site");
        let credits = pool.credits(cfg.queue_capacity);
        let (links, agg_ep) = channel_links(&pool, gi * k, k, &credits);
        let sites = (0..k).map(|i| mk_site(gi, i));
        tasks.extend(pool.tasks(gi * k, sites, links, group_feeds, &credits, cfg));
        groups.push((mk_aggregator(gi), agg_ep, root_link));
    }
    let no_reactor = None::<fn() -> Result<(), RuntimeError>>;
    run_tree_pool(s, topo.sync_every, pool, tasks, groups, root_ep, no_reactor)
}

/// Single-threaded fan-in tree over arbitrary protocol nodes: one lockstep
/// [`dwrs_sim::Runner`] per group plus the root's sync/merge bookkeeping.
/// This is the specification the concurrent trees ([`run_tree_nodes`])
/// are checked against, and the lockstep engine of every
/// [`crate::driver::Query`] tree deployment. Each sync is metered exactly
/// as a concurrent aggregator meters it, plus one
/// `(items observed, root-tier messages)` timeline snapshot.
pub struct LockstepTree<S, A>
where
    S: SiteNode,
    A: CoordinatorNode<Up = S::Up, Down = S::Down> + SampleSource,
{
    groups: Vec<dwrs_sim::Runner<S, A>>,
    synced: Vec<Vec<Keyed>>,
    stats: Vec<GroupStats>,
    pending: Vec<u64>,
    sync_metrics: Metrics,
    sync_every: u64,
    s: usize,
}

impl<S, A> std::fmt::Debug for LockstepTree<S, A>
where
    S: SiteNode,
    A: CoordinatorNode<Up = S::Up, Down = S::Down> + SampleSource,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "LockstepTree({} groups, sync_every {})",
            self.groups.len(),
            self.sync_every
        )
    }
}

impl<S, A> LockstepTree<S, A>
where
    S: SiteNode,
    A: CoordinatorNode<Up = S::Up, Down = S::Down> + SampleSource,
{
    /// Builds the tree from per-group lockstep runners (each already
    /// holding its `k` sites and aggregator), syncing every group's keyed
    /// sample to the root after `sync_every` of its items.
    pub fn new(s: usize, sync_every: u64, groups: Vec<dwrs_sim::Runner<S, A>>) -> Self {
        assert!(!groups.is_empty(), "need at least one group");
        assert!(sync_every >= 1, "sync period must be at least 1");
        let g = groups.len();
        // Lockstep watermarks advance one item at a time.
        let stats = GroupStats {
            max_frame_items: 1,
            ..GroupStats::default()
        };
        Self {
            groups,
            synced: vec![Vec::new(); g],
            stats: vec![stats; g],
            pending: vec![0; g],
            sync_metrics: Metrics::new(),
            sync_every,
            s,
        }
    }

    /// Feeds one item to site `site` of group `group`.
    pub fn observe(&mut self, group: usize, site: usize, item: Item) {
        self.groups[group].step(site, item);
        self.stats[group].items += 1;
        self.pending[group] += 1;
        if self.pending[group] >= self.sync_every {
            self.sync_group(group);
        }
    }

    /// Ships group `group`'s current sample to the root through the
    /// shared sync metering, then snapshots the root-tier timeline at the
    /// total item count.
    fn sync_group(&mut self, group: usize) {
        let st = &mut self.stats[group];
        st.max_unsynced = st.max_unsynced.max(self.pending[group]);
        st.syncs += 1;
        self.pending[group] = 0;
        let coordinator = &self.groups[group].coordinator;
        let msg = metered_sync(coordinator, group, st.items, &mut self.sync_metrics);
        self.synced[group] = msg.sample;
        let observed = self.stats.iter().map(|st| st.items).sum();
        self.sync_metrics.snapshot(observed);
    }

    /// The root's current merged sample: an exact weighted SWOR of the
    /// union of the groups' streams as of their last syncs.
    pub fn root_sample(&self) -> Vec<Keyed> {
        let parts: Vec<&[Keyed]> = self.synced.iter().map(Vec::as_slice).collect();
        merge_samples(&parts, self.s)
    }

    /// Ends the stream: every site's `finish` messages route through its
    /// aggregator, each group performs its final (exact) sync, and the
    /// root merges. Mirrors the concurrent shutdown ordering.
    pub fn finish(mut self) -> TreeOutput {
        let g = self.groups.len();
        for gi in 0..g {
            self.groups[gi].finish();
            self.sync_group(gi);
            let st = &mut self.stats[gi];
            (st.stale_regular, st.stale_early) = self.groups[gi].coordinator.stale_counts();
        }
        let mut metrics = Metrics::new();
        for runner in &self.groups {
            metrics.merge(&runner.metrics);
        }
        metrics.merge(&self.sync_metrics);
        TreeOutput {
            root_sample: self.root_sample(),
            group_samples: self.synced,
            metrics,
            group_stats: self.stats,
            sync_log: Vec::new(),
        }
    }
}

/// Runs a generic fan-in tree on the threads or epoll substrate: `g`
/// groups of `k` sites built by `mk_site(group, site)` against per-group
/// aggregators built by `mk_aggregator(group)` (any
/// [`SiteNode`]/[`CoordinatorNode`]+[`SampleSource`] pair), with the
/// aggregator→root hop at `U = SyncMsg` and the root merging each group's
/// latest keyed sample into a top-`s`. This is the engine every
/// [`crate::driver::Query`] tree deployment routes through; the lockstep
/// analogue is [`LockstepTree`].
pub fn run_tree_nodes<S, A, I>(
    engine: EngineKind,
    s: usize,
    topo: &TreeTopology,
    mk_site: impl FnMut(usize, usize) -> S,
    mk_aggregator: impl FnMut(usize) -> A,
    streams: Vec<Vec<I>>,
    cfg: &RuntimeConfig,
) -> Result<TreeOutput, RuntimeError>
where
    S: SiteNode + Send,
    S::Up: dwrs_core::framed::FrameCodec + Send + 'static,
    S::Down: dwrs_core::framed::FrameCodec + Clone + Send + 'static,
    A: CoordinatorNode<Up = S::Up, Down = S::Down> + SampleSource + Send,
    I: IntoIterator<Item = Item> + Send,
{
    assert_eq!(streams.len(), topo.groups, "one stream block per group");
    let feeds = streams.into_iter().map(vec_feeds).collect();
    match engine {
        EngineKind::Lockstep => Err(RuntimeError::InvalidScenario(
            "run_tree_nodes drives the concurrent substrates; lockstep trees run through \
             the scenario driver"
                .into(),
        )),
        EngineKind::Threads => run_tree_threads(s, topo, mk_site, mk_aggregator, feeds, cfg),
        EngineKind::Epoll => {
            crate::epoll::run_tree_epoll(s, topo, mk_site, mk_aggregator, feeds, cfg)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dwrs_core::exact::inclusion_probabilities;
    use dwrs_core::swor::wire::sync_len;
    use dwrs_core::swor::{SworConfig, SworSite};
    use dwrs_sim::{build_swor, swor_coordinator, swor_site, tree_group_seed};
    use std::sync::mpsc;

    /// A lockstep SWOR tree of `groups × k` sites, seeded like the scenario
    /// driver's.
    fn swor_tree(
        s: usize,
        groups: usize,
        k: usize,
        sync_every: u64,
        seed: u64,
    ) -> LockstepTree<SworSite, SworCoordinator> {
        let cfg = SworConfig::new(s, k);
        let runners = (0..groups)
            .map(|gi| build_swor(cfg.clone(), tree_group_seed(seed, gi)))
            .collect();
        LockstepTree::new(s, sync_every, runners)
    }

    /// Global site `i % total` is site `i % k` of group `i / k`.
    fn tree_streams(topo: &TreeTopology, n: u64) -> Vec<Vec<Vec<Item>>> {
        let (k, total) = (topo.k_per_group, topo.total_sites() as u64);
        let mut parts = vec![vec![Vec::new(); k]; topo.groups];
        for i in 0..n {
            let site = (i % total) as usize;
            parts[site / k][site % k].push(Item::new(i, 1.0 + (i % 7) as f64));
        }
        parts
    }

    /// The weighted-SWOR tree on a concurrent engine, seeded like
    /// [`swor_tree`].
    fn run_swor_tree(
        engine: EngineKind,
        s: usize,
        topo: &TreeTopology,
        seed: u64,
        streams: Vec<Vec<Vec<Item>>>,
        cfg: &RuntimeConfig,
    ) -> Result<TreeOutput, RuntimeError> {
        let group_cfg = SworConfig::new(s, topo.k_per_group);
        run_tree_nodes(
            engine,
            s,
            topo,
            |gi, i| swor_site(&group_cfg, tree_group_seed(seed, gi), i),
            |gi| swor_coordinator(group_cfg.clone(), tree_group_seed(seed, gi)),
            streams,
            cfg,
        )
    }

    #[test]
    fn root_sample_size_is_min_t_s() {
        let mut tree = swor_tree(4, 2, 2, 1, 7);
        for i in 0..10u64 {
            tree.observe((i % 2) as usize, ((i / 2) % 2) as usize, Item::unit(i));
            let expect = ((i + 1) as usize).min(4);
            assert_eq!(tree.root_sample().len(), expect, "at t = {}", i + 1);
        }
    }

    #[test]
    fn synced_root_matches_oracle_distribution() {
        let weights = [3.0, 1.0, 7.0, 1.0, 2.0, 9.0, 1.0, 4.0];
        let s = 2;
        let exact = inclusion_probabilities(&weights, s);
        let trials = 25_000u64;
        let mut counts = vec![0u64; weights.len()];
        for t in 0..trials {
            let mut tree = swor_tree(s, 2, 2, 1, 40_000 + t);
            for (i, &w) in weights.iter().enumerate() {
                tree.observe(i % 2, (i / 2) % 2, Item::new(i as u64, w));
            }
            for kd in tree.finish().root_sample {
                counts[kd.item.id as usize] += 1;
            }
        }
        for (i, &c) in counts.iter().enumerate() {
            let p = exact[i];
            let emp = c as f64 / trials as f64;
            let se = (p * (1.0 - p) / trials as f64).sqrt();
            assert!(
                (emp - p).abs() < 6.0 * se,
                "item {i}: {emp:.4} vs exact {p:.4}"
            );
        }
    }

    #[test]
    fn stale_root_reflects_last_sync_only() {
        let mut tree = swor_tree(2, 1, 1, 1_000_000, 3);
        tree.observe(0, 0, Item::new(0, 1.0));
        // Never synced: the root is empty until the final sync.
        assert!(tree.root_sample().is_empty());
        assert_eq!(tree.finish().root_sample.len(), 1);
    }

    #[test]
    fn sync_rate_controls_root_traffic() {
        let run = |every: u64| {
            let mut tree = swor_tree(8, 4, 2, every, 9);
            for i in 0..8_000u64 {
                tree.observe((i % 4) as usize, ((i / 4) % 2) as usize, Item::unit(i));
            }
            tree.finish().metrics.kind("sync")
        };
        let chatty = run(10);
        let lazy = run(1_000);
        assert!(
            chatty > 50 * lazy.max(1),
            "sync period had no effect: {chatty} vs {lazy}"
        );
    }

    #[test]
    fn metrics_fold_root_tier_into_paper_accounting() {
        // Tree message accounting flows through `Metrics` (merged
        // key-wise), not ad-hoc counters.
        let mut tree = swor_tree(4, 2, 2, 50, 11);
        for i in 0..2_000u64 {
            tree.observe((i % 2) as usize, ((i / 2) % 2) as usize, Item::unit(i));
        }
        let out = tree.finish();
        let m = &out.metrics;
        assert!(m.kind("sync") > 0);
        // Full paper-accounting byte decomposition across tiers: every
        // upstream byte is either an exact intra-group frame (17 B early,
        // 25 B regular) or part of a SyncMsg frame (17 B header per sync +
        // 24 B per synced entry).
        let syncs: u64 = out.group_stats.iter().map(|st| st.syncs).sum();
        assert_eq!(
            m.up_bytes,
            17 * m.kind("early") + 25 * m.kind("regular") + 17 * syncs + 24 * m.kind("sync")
        );
        assert_eq!(
            m.down_bytes,
            5 * m.kind("level_saturated") + 9 * m.kind("update_epoch")
        );
        // Message totals decompose the same way.
        assert_eq!(
            m.up_total,
            m.kind("early") + m.kind("regular") + m.kind("sync")
        );
        // Timeline snapshots recorded one entry per sync, in item order.
        assert_eq!(m.timeline.len() as u64, syncs);
        assert!(m.timeline.windows(2).all(|w| w[0].0 <= w[1].0));
        // Items observed are tracked per group.
        let items: u64 = out.group_stats.iter().map(|st| st.items).sum();
        assert_eq!(items, 2_000);
        // Spot-check the exact frame size helper against one sync.
        let msg = SyncMsg {
            group: 0,
            items: out.group_stats[0].items,
            sample: out.root_sample,
        };
        assert_eq!(sync_len(&msg), 17 + 24 * msg.sample.len());
    }

    #[test]
    fn threads_tree_end_to_end() {
        let topo = TreeTopology::new(3, 2, 500);
        let n = 30_000u64;
        let out = run_swor_tree(
            EngineKind::Threads,
            8,
            &topo,
            42,
            tree_streams(&topo, n),
            &RuntimeConfig::default(),
        )
        .unwrap();
        assert_eq!(out.root_sample.len(), 8);
        assert_eq!(out.group_samples.len(), 3);
        // Every group's final sync covered its whole substream.
        let items: u64 = out.group_stats.iter().map(|st| st.items).sum();
        assert_eq!(items, n);
        for (gi, st) in out.group_stats.iter().enumerate() {
            assert!(st.syncs >= 1, "group {gi} never synced");
            // Bounded staleness: lag at any sync trigger is under the
            // period plus one frame's item window.
            assert!(
                st.max_unsynced < topo.sync_every + st.max_frame_items,
                "group {gi}: max_unsynced {} vs bound {}",
                st.max_unsynced,
                topo.sync_every + st.max_frame_items
            );
            // The last sync in the log is the exact watermark.
            let last = out
                .sync_log
                .iter()
                .rev()
                .find(|&&(g, _)| g == gi)
                .expect("every group appears in the sync log");
            assert_eq!(last.1, st.items, "group {gi} final sync not exact");
        }
        // Sync traffic is metered into the merged totals.
        assert!(out.metrics.kind("sync") > 0);
        assert!(out.metrics.kind("regular") + out.metrics.kind("early") > 0);
    }

    #[test]
    fn tiny_queue_and_batch_tree_still_completes() {
        // Two-hop backpressure on every message: the deadlock-freedom
        // invariant must hold tier-wise.
        let topo = TreeTopology::new(2, 2, 7);
        let cfg = RuntimeConfig::new()
            .with_batch_max(1)
            .with_queue_capacity(1);
        let out = run_swor_tree(
            EngineKind::Threads,
            4,
            &topo,
            3,
            tree_streams(&topo, 4_000),
            &cfg,
        )
        .unwrap();
        assert_eq!(out.root_sample.len(), 4);
        let items: u64 = out.group_stats.iter().map(|st| st.items).sum();
        assert_eq!(items, 4_000);
    }

    /// A SWOR aggregator that panics on its 20th message in group 1.
    struct PanickingAggregator {
        inner: SworCoordinator,
        group: usize,
        seen: u64,
    }
    impl CoordinatorNode for PanickingAggregator {
        type Up = <SworCoordinator as CoordinatorNode>::Up;
        type Down = <SworCoordinator as CoordinatorNode>::Down;
        fn receive(&mut self, from: usize, msg: Self::Up, out: &mut Outbox<Self::Down>) {
            self.seen += 1;
            if self.group == 1 && self.seen == 20 {
                panic!("injected aggregator failure");
            }
            CoordinatorNode::receive(&mut self.inner, from, msg, out);
        }
    }
    impl SampleSource for PanickingAggregator {
        fn keyed_sample(&self) -> Vec<Keyed> {
            self.inner.keyed_sample()
        }
    }

    #[test]
    fn aggregator_panic_reported_not_hung() {
        // The unwinding aggregator drops its root link. On epoll that link
        // is a socket whose down reader holds a second handle, so the root
        // heard the link end only once a dropped up sender shut the socket
        // down itself; before that, the run hung.
        let topo = TreeTopology::new(2, 2, 1_000);
        let group_cfg = SworConfig::new(8, topo.k_per_group);
        let cfg = RuntimeConfig::new().with_batch_max(1);
        for engine in [EngineKind::Threads, EngineKind::Epoll] {
            let (tx, rx) = mpsc::channel();
            let group_cfg = group_cfg.clone();
            let run = thread::spawn(move || {
                let res = run_tree_nodes(
                    engine,
                    8,
                    &topo,
                    |gi, i| swor_site(&group_cfg, tree_group_seed(5, gi), i),
                    |gi| PanickingAggregator {
                        inner: swor_coordinator(group_cfg.clone(), tree_group_seed(5, gi)),
                        group: gi,
                        seen: 0,
                    },
                    tree_streams(&topo, 200_000),
                    &cfg,
                );
                let _ = tx.send(res.map(|_| ()));
            });
            let res = rx
                .recv_timeout(std::time::Duration::from_secs(60))
                .unwrap_or_else(|_| panic!("{engine:?}: tree run hung"));
            run.join().expect("tree run thread");
            assert!(
                matches!(res, Err(RuntimeError::AggregatorPanicked(1))),
                "{engine:?}: got {res:?}"
            );
        }
    }

    #[test]
    fn tcp_tree_rejects_sample_size_over_frame_cap() {
        // A sync frame must fit MAX_FRAME_LEN; the framed epoll tree fails
        // fast with a diagnostic instead of erroring mid-run (the channel
        // engine has no framing and accepts the same size).
        let topo = TreeTopology::new(1, 1, 1_000);
        let err = run_swor_tree(
            EngineKind::Epoll,
            50_000,
            &topo,
            1,
            vec![vec![Vec::new()]],
            &RuntimeConfig::default(),
        )
        .unwrap_err();
        assert!(
            matches!(err, RuntimeError::Transport(ref m)
                if m.contains("sample size 50000") && m.contains("epoll tree")),
            "got {err:?}"
        );
    }

    #[test]
    fn topology_validates() {
        assert_eq!(TreeTopology::new(4, 8, 100).total_sites(), 32);
        let r = std::panic::catch_unwind(|| TreeTopology::new(0, 1, 1));
        assert!(r.is_err());
        let r = std::panic::catch_unwind(|| TreeTopology::new(1, 1, 0));
        assert!(r.is_err());
    }
}
