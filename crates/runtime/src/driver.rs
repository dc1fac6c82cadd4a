//! The scenario driver: one declarative description, any engine, any
//! topology, O(batch × queue) memory.
//!
//! Before this layer existed every engine×topology combination was wired
//! up separately (CLI, benches, equivalence tests, …), and every run
//! pre-materialized the whole workload into `Vec<Vec<Item>>` — O(n)
//! resident memory before the first `observe`. The driver replaces both:
//!
//! * [`Workload`] + [`ItemSource`] — a streaming, seedable description of
//!   the input (synthetic generators, a CSV reader, or an in-memory vec
//!   adapter). Generators synthesize items on demand; nothing is
//!   materialized.
//! * a **bounded sharded dispatcher** — a thread that pulls *draws* off the
//!   staged source (`Workload::staged`: each synthetic generator split
//!   into a sequential draw and a pure per-item [`WeightMap`]), assigns
//!   each to a site via the scenario's [`Partition`] (which never reads a
//!   weight), and pushes fixed-size frames into per-site bounded queues.
//!   Each queue's [`ShardSource`] finishes a frame's weights — the `powf`
//!   or `exp` of the map — on the site worker (either engine's) that takes
//!   it off the queue, and sums them; the driver adds the shard sums into
//!   [`RunReport::total_weight`]. So the one serial thread only draws
//!   and partitions. Peak buffered input is
//!   `shards × (QUEUE_FRAMES + 2) × FRAME_ITEMS` items (see
//!   [`DispatcherStats`]), independent of stream length — O(batch ×
//!   queue), not O(n).
//! * [`Scenario`] + [`run_scenario`] — the single entry point: protocol
//!   config, engine (lockstep | threads | epoll), topology (flat | tree),
//!   workload, seed and partition in one value; the result is a uniform
//!   [`RunReport`] (sample, per-tier metrics, stale-message counts,
//!   invariant checks, wall clock, throughput, dispatcher stats, peak-RSS
//!   estimate) whatever the substrate.
//!
//! ```text
//!             ┌────────────┐  frames of draws   shard source: finish
//!   Workload ─► dispatcher ├──► shard 0 queue ─► + sum weights ─► site 0 ─┐
//!   (draws)   │  thread    ├──► shard 1 queue ─► + sum weights ─► site 1 ─┼─► engine
//!             │ Partition  ├──► …                (on the site's worker)   │
//!             └────────────┘  bounded: QUEUE_FRAMES each                  ┘
//! ```
//!
//! The lockstep engine needs no dispatcher: the driver feeds the
//! simulator the composed stream ([`Staged::compose`], which is what
//! [`Workload::source`] returns) in global arrival order, at O(1) extra
//! memory. Lockstep therefore sums the total weight sequentially, and the
//! concurrent engines' per-shard sums can differ from it by rounding.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::thread;
use std::time::Duration;

use dwrs_core::ctrl::{LiveQueryKind, LiveSnapshot};
use dwrs_core::framed::FrameCodec;
use dwrs_core::swor::{swor_bound, CoordStats, SworConfig};
use dwrs_core::{Item, Keyed};
use dwrs_sim::{CoordinatorNode, Metrics, Partition, Partitioner, Runner, SiteNode};
use dwrs_workloads::source::{
    lognormal_staged, pareto_staged, uniform_staged, unit_stream, zipf_staged, CsvSource,
    ItemSource, Staged, WeightMap,
};

use crate::config::RuntimeConfig;
use crate::engine::{run_threads_fed, Feed, ItemFeed, RunOutput, RuntimeError};
use crate::epoll::{run_epoll, run_tree_epoll};
use crate::query::{run_query_flat, run_query_tree, FlatOutcome, TreeOutcome};
use crate::tree::{
    run_tree_threads, GroupStats, LockstepTree, SampleSource, TreeOutput, TreeTopology,
};

pub use crate::query::{Query, QueryAnswer};

// ----------------------------------------------------------- workloads

/// Declarative workload description — resolved into a streaming
/// [`ItemSource`] per run by [`Workload::source`].
#[derive(Clone, Debug, PartialEq)]
pub enum Workload {
    /// `n` unit-weight items.
    Unit,
    /// Uniform weights in `[lo, hi)`.
    Uniform {
        /// Lower weight bound (exclusive of 0).
        lo: f64,
        /// Upper weight bound.
        hi: f64,
    },
    /// I.i.d. Zipf-by-rank weights `(n/r)^alpha` with each rank drawn
    /// uniformly at random (streaming, O(1) memory; see
    /// [`dwrs_workloads::zipf_stream`]). The CLI spells this `zipf_iid`.
    /// Same marginal weight distribution as [`Workload::ZipfRanked`], but
    /// ranks repeat — it is *not* the exact permutation.
    Zipf {
        /// Skew exponent.
        alpha: f64,
    },
    /// The exact Zipf rank permutation: every rank `1..=n` appears exactly
    /// once, shuffled (see [`dwrs_workloads::zipf_ranked`]). The CLI spells
    /// this `zipf`. The construction is global, so this variant
    /// **materializes** (O(n) memory) — `run` refuses it in streaming mode
    /// rather than silently switching distributions; pass
    /// `--materialize true` or use `zipf_iid` to stream.
    ZipfRanked {
        /// Skew exponent.
        alpha: f64,
    },
    /// I.i.d. Pareto(α) weights with scale `w_min`.
    Pareto {
        /// Tail exponent.
        alpha: f64,
        /// Scale (minimum weight).
        w_min: f64,
    },
    /// I.i.d. log-normal weights `exp(mu + sigma·Z)`.
    Lognormal {
        /// Location parameter.
        mu: f64,
        /// Shape parameter.
        sigma: f64,
    },
    /// The Theorem 4 residual-skew instance (`top` gigantic heads). The
    /// construction is global, so this variant materializes — use only at
    /// sizes where O(n) memory is acceptable.
    ResidualSkew {
        /// Number of gigantic head items.
        top: usize,
    },
    /// `id,weight` records streamed from a CSV file (the `dwrs workload`
    /// output format). `n` is ignored; the stream ends at EOF.
    Csv(
        /// Path to the CSV file.
        std::path::PathBuf,
    ),
    /// An in-memory stream — the vec-backed adapter (`n` is ignored).
    /// Useful for fixed test instances and for comparing materialized
    /// against streaming execution of the same input. The items are
    /// shared, not cloned: resolving the source per run costs O(1), so
    /// repeated runs (benches, trials) neither copy nor double the O(n)
    /// footprint. Build with [`Workload::items`].
    Items(std::sync::Arc<Vec<Item>>),
}

/// Iterates a shared in-memory workload by index — the allocation-free
/// source behind [`Workload::Items`].
#[derive(Debug)]
struct SharedItems {
    items: std::sync::Arc<Vec<Item>>,
    next: usize,
}

impl Iterator for SharedItems {
    type Item = Item;

    fn next(&mut self) -> Option<Item> {
        let item = self.items.get(self.next).copied();
        self.next += 1;
        item
    }
}

impl Workload {
    /// Wraps an in-memory item vector as a shared workload (the
    /// [`Workload::Items`] adapter).
    pub fn items(items: Vec<Item>) -> Workload {
        Workload::Items(std::sync::Arc::new(items))
    }
    /// Parses a `kind[:params]` spec (the CLI `--workload` syntax):
    /// `unit`, `uniform:<lo>,<hi>`, `zipf:<alpha>` (exact rank permutation,
    /// materializes), `zipf_iid:<alpha>` (i.i.d. ranks, streams),
    /// `pareto:<alpha>`, `lognormal:<mu>,<sigma>`, `residual_skew:<top>`,
    /// `csv:<path>`.
    pub fn parse(spec: &str) -> Result<Workload, String> {
        let (name, params) = match spec.split_once(':') {
            Some((a, b)) => (a, b),
            None => (spec, ""),
        };
        if name == "csv" {
            if params.is_empty() {
                return Err("csv workload needs a path: csv:<path>".into());
            }
            return Ok(Workload::Csv(params.into()));
        }
        let nums: Vec<f64> = if params.is_empty() {
            Vec::new()
        } else {
            params
                .split(',')
                .map(|x| {
                    x.parse::<f64>()
                        .map_err(|_| format!("bad workload parameter '{x}'"))
                })
                .collect::<Result<_, _>>()?
        };
        let get = |i: usize, default: f64| nums.get(i).copied().unwrap_or(default);
        Ok(match name {
            "unit" => Workload::Unit,
            "uniform" => Workload::Uniform {
                lo: get(0, 1.0),
                hi: get(1, 10.0),
            },
            "zipf" => Workload::ZipfRanked { alpha: get(0, 1.2) },
            "zipf_iid" => Workload::Zipf { alpha: get(0, 1.2) },
            "pareto" => Workload::Pareto {
                alpha: get(0, 1.2),
                w_min: 1.0,
            },
            "lognormal" => Workload::Lognormal {
                mu: get(0, 1.0),
                sigma: get(1, 1.0),
            },
            "residual_skew" => Workload::ResidualSkew {
                top: get(0, 4.0).max(1.0) as usize,
            },
            other => return Err(format!("unknown workload kind '{other}'")),
        })
    }

    /// Validates the distribution parameters, returning a human-readable
    /// complaint instead of letting a generator assert mid-run (degenerate
    /// shapes like `uniform:5,2`, `zipf:-1` or `lognormal:0,nan` are
    /// rejected here, before any thread is spawned).
    pub fn validate(&self) -> Result<(), String> {
        let finite = |name: &str, x: f64| {
            if x.is_finite() {
                Ok(())
            } else {
                Err(format!("workload parameter {name} = {x} must be finite"))
            }
        };
        match *self {
            Workload::Unit | Workload::Csv(_) | Workload::Items(_) => Ok(()),
            Workload::Uniform { lo, hi } => {
                finite("lo", lo)?;
                finite("hi", hi)?;
                if lo > 0.0 && hi > lo {
                    Ok(())
                } else {
                    Err(format!("uniform workload needs 0 < lo < hi, got {lo},{hi}"))
                }
            }
            Workload::Zipf { alpha } | Workload::ZipfRanked { alpha } => {
                finite("alpha", alpha)?;
                if alpha > 0.0 {
                    Ok(())
                } else {
                    Err(format!("zipf alpha must be positive, got {alpha}"))
                }
            }
            Workload::Pareto { alpha, w_min } => {
                finite("alpha", alpha)?;
                finite("w_min", w_min)?;
                if alpha > 0.0 && w_min > 0.0 {
                    Ok(())
                } else {
                    Err(format!(
                        "pareto workload needs alpha > 0 and w_min > 0, got {alpha},{w_min}"
                    ))
                }
            }
            Workload::Lognormal { mu, sigma } => {
                finite("mu", mu)?;
                finite("sigma", sigma)?;
                if sigma >= 0.0 {
                    Ok(())
                } else {
                    Err(format!("lognormal sigma must be >= 0, got {sigma}"))
                }
            }
            Workload::ResidualSkew { top } => {
                if top >= 1 {
                    Ok(())
                } else {
                    Err("residual_skew needs at least one head item".into())
                }
            }
        }
    }

    /// Whether resolving this workload occupies O(n) memory (a global
    /// construction or an in-memory vec) rather than streaming at O(1).
    pub fn materializes(&self) -> bool {
        matches!(
            self,
            Workload::ZipfRanked { .. } | Workload::ResidualSkew { .. } | Workload::Items(_)
        )
    }

    /// Resolves the description into a streaming source of (up to) `n`
    /// items: [`Staged::compose`] of the workload's staged form (see
    /// `Workload::staged`). Only the [`Workload::materializes`] variants
    /// occupy O(n) memory; every other variant is O(1). Invalid
    /// distribution parameters surface as `InvalidInput` errors rather than
    /// panics.
    pub fn source(&self, n: u64, seed: u64) -> std::io::Result<Box<dyn ItemSource>> {
        Ok(Box::new(self.staged(n, seed)?.compose()))
    }

    /// Whether every weight the workload draws is at least 1, as Theorem
    /// 3's message bound assumes: lighter streams start their epochs late
    /// (an epoch needs `u ≥ 1`) and may send far more, so the driver checks
    /// the bound only on these. Log-normal weights fall below 1, and CSV
    /// and in-memory weights are not known up front.
    pub(crate) fn weights_at_least_one(&self) -> bool {
        match self {
            Workload::Unit
            | Workload::Zipf { .. }
            | Workload::ZipfRanked { .. }
            | Workload::ResidualSkew { .. } => true,
            Workload::Uniform { lo, .. } => *lo >= 1.0,
            Workload::Pareto { w_min, .. } => *w_min >= 1.0,
            Workload::Lognormal { .. } | Workload::Csv(_) | Workload::Items(_) => false,
        }
    }

    /// Resolves the description into its two stages: a sequential stream
    /// of draws and the pure [`WeightMap`] that finishes each into its
    /// weight. The synthetic generators split where their per-item cost
    /// does (a `powf` or `exp` after the draw); every other variant is its
    /// own draw, with the identity map.
    pub(crate) fn staged(&self, n: u64, seed: u64) -> std::io::Result<StagedSource> {
        fn boxed(staged: Staged<impl ItemSource + 'static>) -> StagedSource {
            Staged {
                draws: Box::new(staged.draws),
                map: staged.map,
            }
        }
        fn identity(items: impl ItemSource + 'static) -> StagedSource {
            Staged {
                draws: Box::new(items),
                map: WeightMap::Identity,
            }
        }
        self.validate()
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
        Ok(match self {
            Workload::Unit => identity(unit_stream(n)),
            Workload::Uniform { lo, hi } => boxed(uniform_staged(n, *lo, *hi, seed)),
            Workload::Zipf { alpha } => boxed(zipf_staged(n, *alpha, seed)),
            Workload::ZipfRanked { alpha } => {
                identity(dwrs_workloads::zipf_ranked(n as usize, *alpha, seed).into_iter())
            }
            Workload::Pareto { alpha, w_min } => boxed(pareto_staged(n, *alpha, *w_min, seed)),
            Workload::Lognormal { mu, sigma } => boxed(lognormal_staged(n, *mu, *sigma, seed)),
            Workload::ResidualSkew { top } => {
                identity(dwrs_workloads::residual_skew(n as usize, *top, seed).into_iter())
            }
            Workload::Csv(path) => identity(CsvSource::open(path)?),
            Workload::Items(items) => identity(SharedItems {
                items: std::sync::Arc::clone(items),
                next: 0,
            }),
        })
    }
}

/// A workload resolved into its draws and their weight map (see
/// [`Workload::staged`]).
pub(crate) type StagedSource = Staged<Box<dyn ItemSource>>;

// ------------------------------------------------------------ scenario

/// Which execution substrate to run a deployment on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineKind {
    /// The single-threaded lockstep simulator (`dwrs_sim::Runner`).
    Lockstep,
    /// OS threads over in-process bounded channels.
    Threads,
    /// Loopback TCP with framed wire encoding, every connection
    /// multiplexed onto a few epoll event loops ([`crate::epoll`]).
    Epoll,
}

impl std::str::FromStr for EngineKind {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "lockstep" => Ok(EngineKind::Lockstep),
            "threads" => Ok(EngineKind::Threads),
            "epoll" => Ok(EngineKind::Epoll),
            other => Err(format!(
                "unknown engine '{other}' (expected lockstep | threads | epoll)"
            )),
        }
    }
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineKind::Lockstep => write!(f, "lockstep"),
            EngineKind::Threads => write!(f, "threads"),
            EngineKind::Epoll => write!(f, "epoll"),
        }
    }
}

/// Coordinator topology of a deployment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Topology {
    /// `k` sites against one coordinator.
    Flat,
    /// `groups` aggregators of `k / groups` sites each, syncing keyed
    /// samples to a root merger every `sync_every` items.
    Tree {
        /// Number of groups (must divide the scenario's `k`).
        groups: usize,
        /// Aggregator→root sync period, in items per group.
        sync_every: u64,
    },
}

/// A complete, declarative description of one run: protocol, engine,
/// topology, workload, seed and partition. Build with [`Scenario::new`]
/// plus the `with_*` builders; execute with [`run_scenario`].
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Execution substrate.
    pub engine: EngineKind,
    /// Coordinator topology.
    pub topology: Topology,
    /// Total number of sites `k` (split across groups for trees).
    pub k: usize,
    /// Sample size `s`.
    pub s: usize,
    /// Stream length for synthetic workloads (CSV / in-memory sources set
    /// their own length).
    pub n: u64,
    /// Master seed; workload, partition, sites and coordinator all derive
    /// their independent streams from it.
    pub seed: u64,
    /// The input stream description.
    pub workload: Workload,
    /// How the globally ordered stream is split across sites.
    pub partition: Partition,
    /// Engine tuning (batching, queue bounds).
    pub runtime: RuntimeConfig,
    /// The paper's level-set mechanism (on by default). Disabling it makes
    /// every key site-drawn, which in turn makes the final sample a
    /// deterministic function of the scenario seed — identical across
    /// engines (the determinism property tests rely on this).
    pub level_sets: bool,
    /// Which application protocol the deployment runs (SWOR by default);
    /// see [`Query`].
    pub query: Query,
}

impl Scenario {
    /// A flat `k`-site scenario with sample size `s` and defaults
    /// mirroring the CLI (`n` = 1M, seed 42, `zipf:1.1`, round-robin).
    pub fn new(engine: EngineKind, k: usize, s: usize) -> Self {
        Self {
            engine,
            topology: Topology::Flat,
            k,
            s,
            n: 1_000_000,
            seed: 42,
            workload: Workload::Zipf { alpha: 1.1 },
            partition: Partition::RoundRobin,
            runtime: RuntimeConfig::default(),
            level_sets: true,
            query: Query::Swor,
        }
    }

    /// Sets the topology.
    pub fn with_topology(mut self, topology: Topology) -> Self {
        self.topology = topology;
        self
    }

    /// Sets the synthetic stream length.
    pub fn with_n(mut self, n: u64) -> Self {
        self.n = n;
        self
    }

    /// Sets the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the workload.
    pub fn with_workload(mut self, workload: Workload) -> Self {
        self.workload = workload;
        self
    }

    /// Sets the partition strategy.
    pub fn with_partition(mut self, partition: Partition) -> Self {
        self.partition = partition;
        self
    }

    /// Sets the engine tuning knobs.
    pub fn with_runtime(mut self, runtime: RuntimeConfig) -> Self {
        self.runtime = runtime;
        self
    }

    /// Enables or disables the level-set mechanism.
    pub fn with_level_sets(mut self, enabled: bool) -> Self {
        self.level_sets = enabled;
        self
    }

    /// Sets the application query the deployment runs.
    pub fn with_query(mut self, query: Query) -> Self {
        self.query = query;
        self
    }

    /// The seeded workload source this scenario reads (the derivation the
    /// CLI's `attach` processes share, so every site process of a daemon
    /// stream reconstructs the identical global stream).
    pub fn source(&self) -> std::io::Result<Box<dyn ItemSource>> {
        self.workload.source(self.n, self.seed ^ 0xA5)
    }

    /// The same stream as [`Scenario::source`], staged (see
    /// [`Workload::staged`]).
    pub(crate) fn staged(&self) -> std::io::Result<StagedSource> {
        self.workload.staged(self.n, self.seed ^ 0xA5)
    }

    /// The seeded site assigner for this scenario's global stream (shared
    /// derivation; see [`Scenario::source`]).
    pub fn partitioner(&self) -> Partitioner {
        Partitioner::new(self.partition, self.k, self.seed ^ 0x17)
    }

    /// Validates shape parameters, returning a human-readable complaint.
    pub fn validate(&self) -> Result<(), String> {
        if self.k == 0 {
            return Err("k must be at least 1".into());
        }
        if self.s == 0 {
            return Err("sample size s must be at least 1".into());
        }
        self.workload.validate()?;
        self.query.validate()?;
        if let Topology::Tree { groups, sync_every } = self.topology {
            if groups == 0 {
                return Err("tree topology needs at least one group".into());
            }
            if sync_every == 0 {
                return Err("sync_every must be at least 1".into());
            }
            if !self.k.is_multiple_of(groups) {
                return Err(format!(
                    "groups {groups} must divide k {} (sites per group must be uniform)",
                    self.k
                ));
            }
        }
        Ok(())
    }

    /// The intra-deployment protocol configuration for a coordinator over
    /// `k` sites (the group size for trees, the full `k` for flat), with
    /// an explicit sample size (the query's effective `s`).
    pub(crate) fn swor_config_with(&self, s: usize, k: usize) -> SworConfig {
        let mut cfg = SworConfig::new(s, k);
        cfg.level_sets_enabled = self.level_sets;
        cfg
    }
}

// ---------------------------------------------------------- dispatcher

/// Items per dispatcher frame. Frames amortize the per-queue-operation
/// cost (one channel send wakes a site's worker once per `FRAME_ITEMS`
/// items) while keeping each shard's resident window small: a frame is
/// 64 KiB of items.
pub const FRAME_ITEMS: usize = 4096;

/// Per-shard dispatch queue bound, in frames. The sites, not the
/// dispatcher, bound a run (the dispatcher only draws; see
/// [`ShardSource`]), so the queues run full and their depth is resident
/// memory, not slack: two frames ride out scheduling jitter between the
/// feeder and a site worker, and the whole input-side window stays
/// `shards × (QUEUE_FRAMES + 2) × FRAME_ITEMS` items — 256 KiB per shard —
/// whatever the stream length.
pub const QUEUE_FRAMES: usize = 2;

/// What the dispatcher measured while feeding a run — the evidence for the
/// bounded-memory invariant.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DispatcherStats {
    /// Items pulled off the source and dispatched.
    pub items: u64,
    /// Total weight of the dispatched items (the `W` that query answers
    /// such as the L1 estimate are checked against). The dispatcher moves
    /// only draws, so each shard source sums the weights it finishes, in
    /// its arrival order, and the driver adds the shard sums in shard order
    /// once the engine returns. It can therefore differ from lockstep's
    /// sequential sum by rounding: by at most about `n·ε` relative
    /// (ε = 2⁻⁵³).
    pub weight: f64,
    /// Frames shipped across all shards.
    pub frames: u64,
    /// Number of shard queues (`k`, or `g·k` for trees).
    pub shards: usize,
    /// Items per frame.
    pub frame_items: usize,
    /// Per-shard queue bound, in frames.
    pub queue_frames: usize,
    /// Largest number of frames resident in queues at any instant
    /// (tracked with relaxed atomics; at most [`Self::in_flight_bound`]).
    pub peak_in_flight_frames: u64,
    /// The engine dropped its receivers before the source was exhausted
    /// (it failed mid-run; the run's error reports why).
    pub receiver_gone: bool,
}

impl DispatcherStats {
    /// Upper bound on frames simultaneously buffered: `queue_frames` per
    /// shard plus one frame in flight per shard (accounting slack between
    /// a send completing and the counter update).
    pub fn in_flight_bound(&self) -> u64 {
        self.shards as u64 * (self.queue_frames as u64 + 1)
    }

    /// Upper bound on *items* resident in the dispatch pipeline: queued
    /// frames plus the partially filled frame per shard. This — not the
    /// stream length — is the driver's input-side memory footprint.
    pub fn buffered_items_bound(&self) -> u64 {
        (self.in_flight_bound() + self.shards as u64) * self.frame_items as u64
    }
}

/// The consuming end of one shard queue: a streaming per-site input,
/// the nonblocking [`ItemFeed`] both engines' site tasks poll. A task
/// must never park its worker on the dispatcher (the feeder may be
/// waiting on queue slots that only drain while the worker keeps
/// servicing its *other* tasks), so `poll` uses `try_recv` and reports
/// `Pending` instead of blocking; the feeder wakes the task's worker on
/// every frame it queues and when it closes the queue.
///
/// The queue carries *draws* (see [`WeightMap`]): the dispatcher moves
/// them in stream order, and the shard source finishes each frame's
/// weights on the site worker that takes the frame off the queue. So the
/// per-item weight map runs on the workers instead of the one
/// dispatcher, and a raw draw never leaves the shard source.
#[derive(Debug)]
pub struct ShardSource {
    rx: mpsc::Receiver<Vec<Item>>,
    map: WeightMap,
    /// Sum of the weights finished so far, in arrival order.
    weight: f64,
    /// Where `weight` is published (as f64 bits) for the driver.
    weight_out: Arc<AtomicU64>,
    in_flight: Arc<AtomicU64>,
    /// The consuming worker's waker, shared with the feeder.
    wake: FeedWake,
}

impl ShardSource {
    /// Takes one frame of draws off the queue and finishes it: every
    /// item's weight in one pass, added to the shard's running sum.
    fn take_frame(&mut self, mut frame: Vec<Item>) -> Vec<Item> {
        // ordering: Relaxed — occupancy statistic; the channel recv
        // already synchronized the frame handoff.
        self.in_flight.fetch_sub(1, Ordering::Relaxed);
        self.weight = self.map.finish_frame(&mut frame, self.weight);
        // ordering: Relaxed — the driver reads the sum only after the
        // engine has joined this shard's consumer thread.
        self.weight_out
            .store(self.weight.to_bits(), Ordering::Relaxed);
        frame
    }
}

impl ItemFeed for ShardSource {
    fn poll(&mut self) -> Feed {
        match self.rx.try_recv() {
            Ok(frame) => Feed::Frame(self.take_frame(frame)),
            Err(mpsc::TryRecvError::Empty) => Feed::Pending,
            Err(mpsc::TryRecvError::Disconnected) => Feed::Done,
        }
    }

    fn set_waker(&mut self, waker: &std::task::Waker) {
        *self.wake.lock().unwrap_or_else(PoisonError::into_inner) = Some(waker.clone());
    }
}

/// A shard queue's consumer waker. A lock, not a once-cell: the feeder
/// queues (or closes) and then reads the slot, the consumer fills the
/// slot and then polls, and the lock orders the two so that either the
/// feeder sees the waker or the consumer's poll sees the frame.
type FeedWake = Arc<Mutex<Option<std::task::Waker>>>;

fn wake_feed(wake: &FeedWake) {
    if let Some(w) = wake.lock().unwrap_or_else(PoisonError::into_inner).as_ref() {
        w.wake_by_ref();
    }
}

/// Feeding half of the dispatch pipeline: owns the source-side frame
/// buffers and the bounded senders.
struct Dispatcher {
    /// Per shard: the queue, the frame being filled, the consumer's waker.
    shards: Vec<(mpsc::SyncSender<Vec<Item>>, Vec<Item>, FeedWake)>,
    in_flight: Arc<AtomicU64>,
    stats: DispatcherStats,
}

impl Dispatcher {
    /// Builds `shards` bounded queues of [`QUEUE_FRAMES`] frames each,
    /// returning the feeder, the per-shard consuming ends (which finish
    /// draws with `map`) and the slots they publish their weight sums in.
    fn new(shards: usize, map: WeightMap) -> (Self, Vec<ShardSource>, Vec<Arc<AtomicU64>>) {
        let queue_frames = QUEUE_FRAMES;
        let in_flight = Arc::new(AtomicU64::new(0));
        let mut txs = Vec::with_capacity(shards);
        let mut rxs = Vec::with_capacity(shards);
        let mut weights = Vec::with_capacity(shards);
        for _ in 0..shards {
            let (tx, rx) = mpsc::sync_channel(queue_frames.max(1));
            let weight_out = Arc::new(AtomicU64::new(0f64.to_bits()));
            let wake = FeedWake::default();
            txs.push((tx, Vec::with_capacity(FRAME_ITEMS), Arc::clone(&wake)));
            rxs.push(ShardSource {
                rx,
                map,
                weight: 0.0,
                weight_out: Arc::clone(&weight_out),
                in_flight: Arc::clone(&in_flight),
                wake,
            });
            weights.push(weight_out);
        }
        let stats = DispatcherStats {
            shards,
            frame_items: FRAME_ITEMS,
            queue_frames: queue_frames.max(1),
            ..DispatcherStats::default()
        };
        (
            Self {
                shards: txs,
                in_flight,
                stats,
            },
            rxs,
            weights,
        )
    }

    fn flush_shard(&mut self, shard: usize) {
        let (tx, buf, wake) = &mut self.shards[shard];
        if buf.is_empty() {
            return;
        }
        let frame = std::mem::replace(buf, Vec::with_capacity(FRAME_ITEMS));
        // Count the frame *before* sending: the consumer can only decrement
        // after delivery, so the counter never underflows, and it
        // overcounts by at most the one frame this (single) feeder has in
        // flight — the slack `in_flight_bound` accounts for.
        // ordering: Relaxed — the bounded channel provides the handoff
        // ordering; this counter only feeds the peak stat.
        let now = self.in_flight.fetch_add(1, Ordering::Relaxed) + 1;
        if now > self.stats.peak_in_flight_frames {
            self.stats.peak_in_flight_frames = now;
        }
        // A send blocks when the shard queue is full — that bounded-queue
        // backpressure is exactly what caps resident memory.
        let sent = tx.send(frame);
        wake_feed(wake);
        if sent.is_err() {
            // ordering: Relaxed — undo of the optimistic count above; the
            // frame never entered the queue, no one observed it.
            self.in_flight.fetch_sub(1, Ordering::Relaxed);
            self.stats.receiver_gone = true;
            return;
        }
        self.stats.frames += 1;
    }

    /// Drains the draws into the shard queues until EOF or until a
    /// receiver is gone (its site failed, so the run fails; closing the
    /// queues then ends the other sites). Runs on its own thread,
    /// concurrent with the engine. The partitioner never reads a weight,
    /// so it assigns draws exactly as it would the finished items.
    fn run(mut self, draws: Box<dyn ItemSource>, mut partitioner: Partitioner) -> DispatcherStats {
        for draw in draws {
            let shard = partitioner.next_site();
            self.stats.items += 1;
            let (_, buf, _) = &mut self.shards[shard];
            buf.push(draw);
            if buf.len() >= FRAME_ITEMS {
                self.flush_shard(shard);
                if self.stats.receiver_gone {
                    break;
                }
            }
        }
        for shard in 0..self.shards.len() {
            self.flush_shard(shard);
        }
        // Dropping the senders closes every shard queue: the engines' site
        // tasks observe end-of-stream and begin the shutdown handshake.
        self.stats
    }
}

/// Closing a queue is an event its consumer may be parked on: close each,
/// then wake its worker — on a panicking feeder's unwind too.
impl Drop for Dispatcher {
    fn drop(&mut self) {
        for (tx, _, wake) in self.shards.drain(..) {
            drop(tx);
            wake_feed(&wake);
        }
    }
}

/// Runs `engine` on the scenario's staged input, fed through `k` shard
/// queues (handed to it as feeds, in global site order) by a dispatcher
/// thread. Once the engine has returned, joins the dispatcher, converting
/// a panicking source (e.g. a malformed CSV record) into a run error
/// instead of a silently truncated stream, and totals the shard weight
/// sums in shard order.
fn dispatched<Out>(
    sc: &Scenario,
    input: StagedSource,
    engine: impl FnOnce(Vec<Box<dyn ItemFeed>>) -> Result<Out, RuntimeError>,
) -> DriveResult<Out> {
    let (dispatcher, shards, weights) = Dispatcher::new(sc.k, input.map);
    let partitioner = sc.partitioner();
    let feeder = thread::spawn(move || dispatcher.run(input.draws, partitioner));
    let feeds = shards
        .into_iter()
        .map(|shard| Box::new(shard) as Box<dyn ItemFeed>)
        .collect();
    let result = engine(feeds);
    let mut stats = feeder
        .join()
        .map_err(|e| match e.downcast_ref::<String>() {
            Some(msg) => RuntimeError::Transport(format!("workload dispatcher failed: {msg}")),
            None => RuntimeError::Transport("workload dispatcher thread panicked".into()),
        })?;
    stats.weight = weights
        .iter()
        // ordering: Relaxed — the engine joined every consumer thread
        // before returning, which ordered their stores before this.
        .map(|w| f64::from_bits(w.load(Ordering::Relaxed)))
        .fold(0.0, |total, w| total + w);
    Ok((stats.items, stats.weight, result?, Some(stats)))
}

// ------------------------------------------------------------- report

/// Everything [`run_scenario`] hands back, uniform across engines and
/// topologies.
#[derive(Debug)]
pub struct RunReport {
    /// Substrate the run executed on.
    pub engine: EngineKind,
    /// Topology the run executed in.
    pub topology: Topology,
    /// The application query the run executed.
    pub query: Query,
    /// The query-specific answer (estimate, candidate set, …); the
    /// `sample` field is always the underlying keyed sample.
    pub answer: QueryAnswer,
    /// Total sites.
    pub k: usize,
    /// Effective sample size of the underlying protocol (the scenario's
    /// `s`, or the L1/residual-HH theorem-derived size).
    pub s: usize,
    /// Items actually streamed (synthetic workloads: the scenario's `n`;
    /// CSV / in-memory sources: their true length).
    pub items: u64,
    /// Total weight of the streamed items: lockstep's sequential sum, or on
    /// threads and epoll the shard sources' sums added in shard order (see
    /// [`DispatcherStats::weight`]), which can differ from it by rounding
    /// (at most about `n·ε` relative, ε = 2⁻⁵³).
    pub total_weight: f64,
    /// Wall-clock time of the run (dispatch + protocol + shutdown; for
    /// streaming workloads, generation overlaps inside this window).
    pub elapsed: Duration,
    /// The final weighted sample — flat: the coordinator's; tree: the
    /// root's merged (exact at shutdown) sample.
    pub sample: Vec<Keyed>,
    /// Merged per-tier message/byte accounting (the paper's accounting
    /// exactly, as in every substrate).
    pub metrics: Metrics,
    /// Per-group cadence/staleness bookkeeping (tree runs; empty for
    /// flat).
    pub group_stats: Vec<GroupStats>,
    /// Root-side `(group, items_covered)` sync log (concurrent tree runs;
    /// empty otherwise).
    pub sync_log: Vec<(usize, u64)>,
    /// Dispatcher bookkeeping (`None` for lockstep runs, which stream
    /// directly without a dispatcher).
    pub dispatcher: Option<DispatcherStats>,
    /// Process peak-RSS *estimate* after the run (`VmHWM` from
    /// `/proc/self/status`; `None` where unavailable). An upper bound: the
    /// high-water mark is process-wide and monotone across runs.
    pub peak_rss_bytes: Option<u64>,
    /// Violated invariants (empty on a healthy run): sample size, the
    /// paper's exact per-kind byte decomposition, broadcast accounting,
    /// key-vs-threshold consistency, tree staleness bounds.
    pub violations: Vec<String>,
    /// The coordinator's final epoch (flat swor-family runs; `None` for
    /// tree runs, whose root holds merged samples rather than epochs).
    pub final_epoch: Option<i64>,
    /// Stale regular messages: regulars whose key was at or below the
    /// threshold of the coordinator's last epoch broadcast when they
    /// arrived (`CoordStats::stale_regular`; trees sum their group
    /// aggregators). A site holding the coordinator's current state would
    /// not have sent them, so lockstep SWOR and rhh runs count zero; the
    /// concurrent engines' delayed delivery sends them. L1's duplicates can
    /// count in lockstep too (one item's ℓ copies ship together), and the
    /// sliding-window coordinator does not classify (always 0).
    pub stale_regular: u64,
    /// Stale early messages: earlies for an already-saturated level whose
    /// coordinator-drawn key was at or below that threshold
    /// (`CoordStats::stale_early`; summed like `stale_regular`).
    pub stale_early: u64,
}

impl RunReport {
    /// Items per second over the whole run.
    pub fn items_per_s(&self) -> f64 {
        self.items as f64 / self.elapsed.as_secs_f64().max(1e-12)
    }

    /// Aggregator→root syncs across all groups (0 for flat runs).
    pub fn syncs(&self) -> u64 {
        self.group_stats.iter().map(|st| st.syncs).sum()
    }

    /// Whether every invariant check passed.
    pub fn invariants_ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// The report in the daemon's incremental-snapshot form: the
    /// [`LiveSnapshot`] a live query would have returned at the instant
    /// the run finished — items observed, epoch, and byte accounting at
    /// that instant — so batch runs and daemon streams serialize
    /// identically ([`LiveSnapshot::to_json`]).
    pub fn live_snapshot(&self) -> LiveSnapshot {
        use dwrs_apps::live;
        let ell = self.query.duplication().unwrap_or(1);
        let u = live::sth_largest_key(&self.sample, self.s);
        let weight: f64 = self.sample.iter().map(|kd| kd.item.weight).sum();
        let (kind, estimate) = match self.query {
            Query::L1 { .. } => (LiveQueryKind::L1Now, live::l1_estimate(self.s, ell, u)),
            Query::ResidualHh { .. } => (LiveQueryKind::RhhSoFar, weight),
            Query::SlidingWindow { .. } => (LiveQueryKind::WindowNow, weight),
            Query::Swor => (LiveQueryKind::CurrentSample, weight),
        };
        LiveSnapshot {
            kind,
            items: self.items,
            epoch: self.final_epoch,
            u,
            estimate,
            ell,
            sites_attached: 0,
            sites_eof: self.k as u32,
            up_msgs: self.metrics.up_total,
            down_msgs: self.metrics.down_total,
            up_bytes: self.metrics.up_bytes,
            down_bytes: self.metrics.down_bytes,
            broadcast_events: self.metrics.broadcast_events,
            stale_regular: self.stale_regular,
            stale_early: self.stale_early,
            sample: self.sample.clone(),
        }
    }
}

/// `VmHWM` (peak resident set) of this process, in bytes.
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line
        .strip_prefix("VmHWM:")?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb * 1024)
}

/// Per-query context for the invariant checks.
struct InvariantCtx<'a> {
    engine: EngineKind,
    query: &'a Query,
    answer: &'a QueryAnswer,
    u: Option<f64>,
    /// Flat swor-family runs: the coordinator's final counters and epoch,
    /// for the unified down-path accounting check.
    coord_stats: Option<CoordStats>,
    final_epoch: Option<i64>,
    /// The run's `(stale_regular, stale_early)` counts.
    stale: (u64, u64),
    /// Flat swor and rhh runs over weights of at least 1: the stream's
    /// total weight, for the Theorem 3 bound check.
    theorem3_weight: Option<f64>,
}

/// The constant in front of Theorem 3's bound that [`check_invariants`]
/// holds every flat swor and rhh run to: up-messages net of stale ones
/// must not exceed `THEOREM3_C · swor_bound(k, s, W)`. Calibrated on
/// lockstep, which sends no stale message: over E1–E3's workloads and
/// shapes under five partitions, the four benchmark shapes at seeds 1–10
/// and CI's k-sweep and run matrix, the largest ratio was 9.75 (k = 1,
/// s = 64, 28M `zipf_iid:1.1` items), and 20 is twice that, rounded up.
/// The ratio grows with the number of weight levels a stream fills, each
/// of which costs up to `4rs` early messages.
const THEOREM3_C: f64 = 20.0;

/// Checks the run-level invariants shared by every substrate; returns the
/// violations (empty when healthy).
fn check_invariants(
    sample: &[Keyed],
    metrics: &Metrics,
    items: u64,
    s: usize,
    k_per_coordinator: usize,
    ctx: &InvariantCtx<'_>,
    tree: Option<(u64, &[GroupStats])>,
) -> Vec<String> {
    let mut violations = Vec::new();
    let mut expect = (s as u64).min(items);
    if let Query::SlidingWindow { window } = ctx.query {
        expect = expect.min(*window);
    }
    if let Some(ell) = ctx.query.duplication() {
        // L1 inserts up to ℓ keyed duplicates per item, and until the
        // sample fills nothing is filtered anywhere (every threshold is
        // still 0), so the sample holds min(s, items·ℓ) entries.
        expect = (s as u64).min(items.saturating_mul(ell));
    }
    if sample.len() as u64 != expect {
        violations.push(format!(
            "sample size {} != min(s, items·dups, window) = {expect}",
            sample.len()
        ));
    }
    let syncs = tree.map_or(0, |(_, stats)| stats.iter().map(|st| st.syncs).sum());
    let expect_up = 17 * metrics.kind("early")
        + 25 * metrics.kind("regular")
        + 25 * metrics.kind("window_cand")
        + 17 * syncs
        + 24 * metrics.kind("sync");
    if metrics.up_bytes != expect_up {
        violations.push(format!(
            "upstream bytes {} != exact frame decomposition {expect_up}",
            metrics.up_bytes
        ));
    }
    let expect_down = 5 * metrics.kind("level_saturated") + 9 * metrics.kind("update_epoch");
    if metrics.down_bytes != expect_down {
        violations.push(format!(
            "downstream bytes {} != exact frame decomposition {expect_down}",
            metrics.down_bytes
        ));
    }
    if metrics.down_total != metrics.broadcast_events * k_per_coordinator as u64 {
        violations.push(format!(
            "down_total {} != broadcast_events {} × k {k_per_coordinator}",
            metrics.down_total, metrics.broadcast_events
        ));
    }
    // Unified down-path accounting (flat swor-family runs): the broadcast
    // counts must be the deterministic function of the coordinator's final
    // state — one `level_saturated` per saturation, one `update_epoch` per
    // epoch in the span [first, final] — whatever the engine or delivery
    // timing (the 224-vs-232 metering-drift regression guard).
    if let Some(stats) = ctx.coord_stats {
        let k = k_per_coordinator as u64;
        if metrics.kind("level_saturated") != stats.saturations * k {
            violations.push(format!(
                "level_saturated count {} != saturations {} × k {k}",
                metrics.kind("level_saturated"),
                stats.saturations
            ));
        }
        if metrics.kind("update_epoch") != stats.epoch_broadcasts * k {
            violations.push(format!(
                "update_epoch count {} != epoch broadcasts {} × k {k}",
                metrics.kind("update_epoch"),
                stats.epoch_broadcasts
            ));
        }
        if let (Some(first), Some(last)) = (stats.first_epoch, ctx.final_epoch) {
            let span = (last - first + 1).max(0) as u64;
            if stats.epoch_broadcasts != span {
                violations.push(format!(
                    "epoch broadcasts {} != epoch span {span} (epochs {first}..={last})",
                    stats.epoch_broadcasts
                ));
            }
        }
    }
    // Prompt delivery leaves no site behind the coordinator, so a lockstep
    // run sends no stale message — except L1, whose ℓ copies of one item
    // ship together, ahead of the broadcasts the first copies cause.
    if ctx.engine == EngineKind::Lockstep
        && ctx.query.duplication().is_none()
        && ctx.stale != (0, 0)
    {
        violations.push(format!(
            "lockstep run counted {} stale regular and {} stale early messages; \
             prompt delivery sends none",
            ctx.stale.0, ctx.stale.1
        ));
    }
    if let Some(weight) = ctx.theorem3_weight {
        // Stale messages are the concurrent engines' excess over the
        // model; the rest must meet the bound.
        let fresh = metrics.up_total.saturating_sub(ctx.stale.0 + ctx.stale.1);
        let bound = swor_bound(k_per_coordinator, s, weight);
        if fresh as f64 > THEOREM3_C * bound {
            violations.push(format!(
                "{fresh} up-messages net of stale ones exceed {THEOREM3_C} x Theorem 3's \
                 bound {bound:.1} (k = {k_per_coordinator}, s = {s}, W = {weight:.3e})"
            ));
        }
    }
    if let Some(u) = ctx.u {
        if sample.iter().any(|kd| kd.key < u) {
            violations.push(format!("a sampled key fell below the threshold u = {u:e}"));
        }
    }
    match (ctx.query, ctx.answer) {
        (Query::SlidingWindow { window }, _) => {
            let cutoff = items.saturating_sub(*window);
            if let Some(stale) = sample.iter().find(|kd| kd.item.id < cutoff) {
                violations.push(format!(
                    "window sample contains expired item {} (cutoff {cutoff})",
                    stale.item.id
                ));
            }
        }
        // A loose accuracy guard: the theorem gives (1±ε) with prob. 1-δ;
        // 0.5 catches wiring bugs (wrong ℓ, wrong u) without flaking on
        // unlucky seeds.
        (
            Query::L1 { .. },
            QueryAnswer::L1 {
                estimate,
                true_weight,
                rel_error,
                ..
            },
        ) if items > 1_000 && *rel_error > 0.5 => {
            violations.push(format!(
                "L1 estimate {estimate:.3e} is off the exact weight \
                 {true_weight:.3e} by {rel_error:.2}"
            ));
        }
        _ => {}
    }
    if let Some((sync_every, stats)) = tree {
        let covered: u64 = stats.iter().map(|st| st.items).sum();
        if covered != items {
            violations.push(format!(
                "group watermarks cover {covered} items, stream had {items}"
            ));
        }
        for (gi, st) in stats.iter().enumerate() {
            if st.max_unsynced >= sync_every + st.max_frame_items.max(1) {
                violations.push(format!(
                    "group {gi}: staleness {} breaches bound {}",
                    st.max_unsynced,
                    sync_every + st.max_frame_items.max(1)
                ));
            }
        }
    }
    violations
}

// -------------------------------------------------------------- driver

/// Executes a [`Scenario`] on its engine and topology, streaming the
/// workload at O(batch × queue) memory, and returns the uniform
/// [`RunReport`]. This is the single entry point every engine×topology
/// surface (CLI, benches, equivalence suites) routes through.
pub fn run_scenario(sc: &Scenario) -> Result<RunReport, RuntimeError> {
    sc.validate().map_err(RuntimeError::InvalidScenario)?;
    let input = sc
        .staged()
        .map_err(|e| RuntimeError::InvalidScenario(format!("workload source: {e}")))?;
    match sc.topology {
        Topology::Flat => run_flat(sc, input),
        Topology::Tree { groups, sync_every } => run_tree(sc, input, groups, sync_every),
    }
}

/// What a generic engine drive hands back: items streamed, their total
/// weight, the protocol output, and dispatcher stats (concurrent engines
/// only).
pub(crate) type DriveResult<Out> = Result<(u64, f64, Out, Option<DispatcherStats>), RuntimeError>;

/// Drives a flat deployment of arbitrary protocol nodes on the scenario's
/// engine: the lockstep simulator consumes the composed stream directly
/// (O(1) extra memory, plus the end-of-stream [`SiteNode::finish`] pass);
/// the concurrent engines stream the draws through the bounded dispatcher
/// and finish them in their shard sources.
pub(crate) fn drive_flat<S, C>(
    sc: &Scenario,
    input: StagedSource,
    sites: Vec<S>,
    coordinator: C,
) -> DriveResult<RunOutput<S, C>>
where
    S: SiteNode + Send,
    S::Up: FrameCodec + Send + 'static,
    S::Down: FrameCodec + Clone + Send + 'static,
    C: CoordinatorNode<Up = S::Up, Down = S::Down> + Send,
{
    match sc.engine {
        EngineKind::Lockstep => {
            let mut partitioner = sc.partitioner();
            let mut runner = Runner::new(coordinator, sites);
            let (mut items, mut weight) = (0u64, 0.0f64);
            for item in input.compose() {
                weight += item.weight;
                runner.step(partitioner.next_site(), item);
                items += 1;
            }
            runner.finish();
            let out = RunOutput {
                sites: runner.sites,
                coordinator: runner.coordinator,
                metrics: runner.metrics,
            };
            Ok((items, weight, out, None))
        }
        engine => dispatched(sc, input, |feeds| match engine {
            EngineKind::Threads => run_threads_fed(sites, coordinator, feeds, &sc.runtime),
            _ => run_epoll(sites, coordinator, feeds, &sc.runtime),
        }),
    }
}

/// Drives a fan-in tree of arbitrary protocol nodes on the scenario's
/// engine: the lockstep arm runs a [`LockstepTree`] built from the same
/// factories the concurrent engines use.
pub(crate) fn drive_tree<S, A>(
    sc: &Scenario,
    input: StagedSource,
    groups: usize,
    sync_every: u64,
    mut mk_site: impl FnMut(usize, usize) -> S,
    mut mk_aggregator: impl FnMut(usize) -> A,
    s_eff: usize,
) -> DriveResult<TreeOutput>
where
    S: SiteNode + Send,
    S::Up: FrameCodec + Send + 'static,
    S::Down: FrameCodec + Clone + Send + 'static,
    A: CoordinatorNode<Up = S::Up, Down = S::Down> + SampleSource + Send,
{
    let k_per_group = sc.k / groups;
    let topo = TreeTopology::new(groups, k_per_group, sync_every);
    match sc.engine {
        EngineKind::Lockstep => {
            // Direct feed, global arrival order: site `i` of the global
            // stream is site `i % k_per_group` of group `i / k_per_group`.
            let mut partitioner = sc.partitioner();
            let (mut items, mut weight) = (0u64, 0.0f64);
            let runners = (0..groups)
                .map(|gi| {
                    Runner::new(
                        mk_aggregator(gi),
                        (0..k_per_group).map(|i| mk_site(gi, i)).collect(),
                    )
                })
                .collect();
            let mut tree = LockstepTree::new(s_eff, sync_every, runners);
            for item in input.compose() {
                let site = partitioner.next_site();
                weight += item.weight;
                tree.observe(site / k_per_group, site % k_per_group, item);
                items += 1;
            }
            Ok((items, weight, tree.finish(), None))
        }
        engine => dispatched(sc, input, |feeds| {
            // Regroup the flat feed list into per-group blocks (shard
            // order is global site order, which is group-major).
            let mut it = feeds.into_iter();
            let grouped: Vec<Vec<Box<dyn ItemFeed>>> = (0..groups)
                .map(|_| it.by_ref().take(k_per_group).collect())
                .collect();
            let (rt, topo) = (&sc.runtime, &topo);
            match engine {
                EngineKind::Threads => {
                    run_tree_threads(s_eff, topo, mk_site, mk_aggregator, grouped, rt)
                }
                _ => run_tree_epoll(s_eff, topo, mk_site, mk_aggregator, grouped, rt),
            }
        }),
    }
}

fn run_flat(sc: &Scenario, input: StagedSource) -> Result<RunReport, RuntimeError> {
    let FlatOutcome {
        items,
        weight,
        elapsed,
        sample,
        metrics,
        u,
        coord_stats,
        final_epoch,
        dispatcher,
        answer,
    } = run_query_flat(sc, input)?;
    let s_eff = sc.query.sample_size(sc.s);
    let stale = coord_stats.map_or((0, 0), |st| (st.stale_regular, st.stale_early));
    let theorem3 = matches!(sc.query, Query::Swor | Query::ResidualHh { .. })
        && sc.workload.weights_at_least_one();
    let ctx = InvariantCtx {
        engine: sc.engine,
        query: &sc.query,
        answer: &answer,
        u,
        coord_stats,
        final_epoch,
        stale,
        theorem3_weight: theorem3.then_some(weight),
    };
    let violations = check_invariants(&sample, &metrics, items, s_eff, sc.k, &ctx, None);
    Ok(RunReport {
        engine: sc.engine,
        topology: sc.topology,
        query: sc.query,
        answer,
        k: sc.k,
        s: s_eff,
        items,
        total_weight: weight,
        elapsed,
        sample,
        metrics,
        group_stats: Vec::new(),
        sync_log: Vec::new(),
        dispatcher,
        peak_rss_bytes: peak_rss_bytes(),
        violations,
        final_epoch,
        stale_regular: stale.0,
        stale_early: stale.1,
    })
}

fn run_tree(
    sc: &Scenario,
    input: StagedSource,
    groups: usize,
    sync_every: u64,
) -> Result<RunReport, RuntimeError> {
    let k_per_group = sc.k / groups;
    let TreeOutcome {
        items,
        weight,
        elapsed,
        out,
        dispatcher,
        answer,
    } = run_query_tree(sc, input, groups, sync_every)?;
    let s_eff = sc.query.sample_size(sc.s);
    let stale = out.group_stats.iter().fold((0, 0), |(r, e), st| {
        (r + st.stale_regular, e + st.stale_early)
    });
    let ctx = InvariantCtx {
        engine: sc.engine,
        query: &sc.query,
        answer: &answer,
        u: None,
        coord_stats: None,
        final_epoch: None,
        stale,
        theorem3_weight: None,
    };
    let violations = check_invariants(
        &out.root_sample,
        &out.metrics,
        items,
        s_eff,
        k_per_group,
        &ctx,
        Some((sync_every, &out.group_stats)),
    );
    Ok(RunReport {
        engine: sc.engine,
        topology: sc.topology,
        query: sc.query,
        answer,
        k: sc.k,
        s: s_eff,
        items,
        total_weight: weight,
        elapsed,
        sample: out.root_sample,
        metrics: out.metrics,
        group_stats: out.group_stats,
        sync_log: out.sync_log,
        dispatcher,
        peak_rss_bytes: peak_rss_bytes(),
        violations,
        final_epoch: None,
        stale_regular: stale.0,
        stale_early: stale.1,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dwrs_workloads::source::zipf_stream;

    fn key_bits(sample: &[Keyed]) -> Vec<(u64, u64)> {
        sample
            .iter()
            .map(|kd| (kd.item.id, kd.key.to_bits()))
            .collect()
    }

    #[test]
    fn runs_over_theorem3_bound_are_violations() {
        // k = 8, s = 64, W = 1e6: the bound is 8·ln(15625)/ln(1.125).
        let bound = swor_bound(8, 64, 1e6);
        let limit = (THEOREM3_C * bound) as u64;
        let flagged = |up: u64, stale: (u64, u64), theorem3_weight: Option<f64>| {
            let mut metrics = Metrics::new();
            metrics.up_total = up;
            let ctx = InvariantCtx {
                engine: EngineKind::Threads,
                query: &Query::Swor,
                answer: &QueryAnswer::Swor,
                u: None,
                coord_stats: None,
                final_epoch: None,
                stale,
                theorem3_weight,
            };
            let violations = check_invariants(&[], &metrics, 0, 64, 8, &ctx, None);
            violations.iter().any(|v| v.contains("Theorem 3"))
        };
        assert!(!flagged(limit, (0, 0), Some(1e6)));
        assert!(flagged(limit + 1, (0, 0), Some(1e6)));
        // Stale messages are the engines' excess over the model.
        assert!(!flagged(limit + 500, (200, 300), Some(1e6)));
        assert!(flagged(limit + 501, (200, 300), Some(1e6)));
        // L1, window, tree and light-weight runs are reported only.
        assert!(!flagged(10 * limit, (0, 0), None));
        assert!(Workload::Zipf { alpha: 1.1 }.weights_at_least_one());
        assert!(!Workload::Uniform { lo: 0.5, hi: 2.0 }.weights_at_least_one());
        assert!(!Workload::Lognormal {
            mu: 5.0,
            sigma: 1.0
        }
        .weights_at_least_one());
    }

    #[test]
    fn engine_kind_parses() {
        assert_eq!(
            "threads".parse::<EngineKind>().unwrap(),
            EngineKind::Threads
        );
        assert_eq!("epoll".parse::<EngineKind>().unwrap(), EngineKind::Epoll);
        assert_eq!(
            "lockstep".parse::<EngineKind>().unwrap(),
            EngineKind::Lockstep
        );
        assert!("async".parse::<EngineKind>().is_err());
        assert!("tcp".parse::<EngineKind>().is_err());
        assert_eq!(EngineKind::Threads.to_string(), "threads");
        assert_eq!(EngineKind::Epoll.to_string(), "epoll");
    }

    #[test]
    fn workload_specs_parse() {
        assert_eq!(Workload::parse("unit").unwrap(), Workload::Unit);
        assert_eq!(
            Workload::parse("uniform:2,5").unwrap(),
            Workload::Uniform { lo: 2.0, hi: 5.0 }
        );
        assert_eq!(
            Workload::parse("zipf:1.3").unwrap(),
            Workload::ZipfRanked { alpha: 1.3 }
        );
        assert_eq!(
            Workload::parse("zipf_iid:1.3").unwrap(),
            Workload::Zipf { alpha: 1.3 }
        );
        assert!(Workload::parse("zipf_iid:1.3").unwrap().validate().is_ok());
        assert!(!Workload::parse("zipf_iid:1.3").unwrap().materializes());
        assert!(Workload::parse("zipf:1.3").unwrap().materializes());
        assert!(matches!(
            Workload::parse("csv:/tmp/x.csv").unwrap(),
            Workload::Csv(_)
        ));
        assert!(Workload::parse("nope").unwrap_err().contains("unknown"));
        assert!(Workload::parse("uniform:abc")
            .unwrap_err()
            .contains("bad workload parameter"));
        assert!(Workload::parse("csv").is_err());
    }

    #[test]
    fn degenerate_workload_params_are_typed_errors_not_panics() {
        // Generator asserts must never fire mid-run: validation rejects
        // the shapes up front, through both validate() and run_scenario().
        for bad in [
            Workload::Uniform { lo: 5.0, hi: 2.0 },
            Workload::Uniform { lo: 0.0, hi: 1.0 },
            Workload::Uniform {
                lo: 1.0,
                hi: f64::INFINITY,
            },
            Workload::Zipf { alpha: 0.0 },
            Workload::Zipf { alpha: -1.0 },
            Workload::ZipfRanked { alpha: f64::NAN },
            Workload::Pareto {
                alpha: -0.5,
                w_min: 1.0,
            },
            Workload::Pareto {
                alpha: 1.0,
                w_min: 0.0,
            },
            Workload::Lognormal {
                mu: 0.0,
                sigma: -1.0,
            },
            Workload::Lognormal {
                mu: f64::NAN,
                sigma: 1.0,
            },
            Workload::ResidualSkew { top: 0 },
        ] {
            assert!(bad.validate().is_err(), "{bad:?} accepted");
            assert!(bad.source(10, 1).is_err(), "{bad:?} source resolved");
            let sc = Scenario::new(EngineKind::Lockstep, 2, 4)
                .with_n(10)
                .with_workload(bad.clone());
            let err = run_scenario(&sc).unwrap_err();
            assert!(
                matches!(err, RuntimeError::InvalidScenario(_)),
                "{bad:?}: {err}"
            );
        }
        // n = 0 is a valid (empty) stream, not a panic.
        let sc = Scenario::new(EngineKind::Lockstep, 2, 4)
            .with_n(0)
            .with_workload(Workload::Zipf { alpha: 1.2 });
        let report = run_scenario(&sc).expect("empty stream runs");
        assert_eq!(report.items, 0);
        assert!(report.sample.is_empty());
        // A shape that passes validation can still overflow mid-stream:
        // pareto:0.01 maps u to u^-100, which is infinite for u < 8e-4
        // (about 30 of these 40k items). On threads and epoll the shard
        // source finishing such a frame fails its site; the run must
        // return an error, flat and tree, and not hang. Round-robin fails
        // every site of four; with every item on site 0 of eight, the
        // other seven finish only once the feeder, stopped on site 0's
        // full queue, gives up and closes their queues.
        let overflowing = Workload::parse("pareto:0.01").unwrap();
        assert!(overflowing.validate().is_ok());
        let shapes = [
            (4, Partition::RoundRobin, 40_000),
            (8, Partition::SingleSite(0), 100_000),
        ];
        for engine in [EngineKind::Threads, EngineKind::Epoll] {
            for topology in [
                Topology::Flat,
                Topology::Tree {
                    groups: 2,
                    sync_every: 1_000,
                },
            ] {
                for (k, partition, n) in shapes {
                    let sc = Scenario::new(engine, k, 8)
                        .with_n(n)
                        .with_workload(overflowing.clone())
                        .with_partition(partition)
                        .with_topology(topology);
                    let (tx, rx) = mpsc::channel();
                    thread::spawn(move || tx.send(run_scenario(&sc).map(|r| r.items)));
                    let shape = format!("{engine} {topology:?} k = {k} {partition:?}");
                    let result = rx
                        .recv_timeout(Duration::from_secs(60))
                        .unwrap_or_else(|_| panic!("{shape}: run hung"));
                    let err = result.expect_err("an overflowing weight must fail the run");
                    assert!(
                        matches!(err, RuntimeError::SitePanicked(_)),
                        "{shape}: {err}"
                    );
                }
            }
        }
    }

    #[test]
    fn zipf_ranked_workload_is_the_exact_permutation() {
        // The `zipf` spec resolves to the rank permutation: collected, its
        // weights are exactly the multiset {(n/r)^alpha : r = 1..=n}.
        let n = 64u64;
        let alpha = 1.2f64;
        let wl = Workload::parse("zipf:1.2").unwrap();
        let mut got: Vec<f64> = wl.source(n, 9).unwrap().map(|it| it.weight).collect();
        got.sort_by(f64::total_cmp);
        let mut want: Vec<f64> = (1..=n)
            .map(|r| (n as f64 / r as f64).powf(alpha).max(1.0))
            .collect();
        want.sort_by(f64::total_cmp);
        assert_eq!(got, want);
    }

    #[test]
    fn scenario_validation_catches_shape_errors() {
        let bad = Scenario::new(EngineKind::Threads, 0, 4);
        assert!(bad.validate().is_err());
        let bad = Scenario::new(EngineKind::Threads, 4, 0);
        assert!(bad.validate().is_err());
        let bad = Scenario::new(EngineKind::Threads, 8, 4).with_topology(Topology::Tree {
            groups: 3,
            sync_every: 100,
        });
        assert!(bad.validate().unwrap_err().contains("must divide"));
        let bad = Scenario::new(EngineKind::Threads, 8, 4).with_topology(Topology::Tree {
            groups: 2,
            sync_every: 0,
        });
        assert!(bad.validate().is_err());
        assert!(run_scenario(&bad).is_err());
    }

    #[test]
    fn flat_scenario_runs_on_every_engine() {
        for engine in [EngineKind::Lockstep, EngineKind::Threads, EngineKind::Epoll] {
            let sc = Scenario::new(engine, 4, 8)
                .with_n(20_000)
                .with_workload(Workload::Zipf { alpha: 1.2 });
            let report = run_scenario(&sc).expect("run");
            assert_eq!(report.items, 20_000, "engine {engine}");
            assert_eq!(report.sample.len(), 8, "engine {engine}");
            assert!(
                report.invariants_ok(),
                "engine {engine}: {:?}",
                report.violations
            );
            assert!(report.items_per_s() > 0.0);
            match engine {
                EngineKind::Lockstep => assert!(report.dispatcher.is_none()),
                _ => {
                    let d = report.dispatcher.expect("dispatcher stats");
                    assert_eq!(d.items, 20_000);
                    assert!(!d.receiver_gone);
                    assert!(d.peak_in_flight_frames <= d.in_flight_bound());
                }
            }
        }
    }

    #[test]
    fn tree_scenario_runs_on_every_engine() {
        for engine in [EngineKind::Lockstep, EngineKind::Threads, EngineKind::Epoll] {
            let sc = Scenario::new(engine, 4, 8)
                .with_n(20_000)
                .with_topology(Topology::Tree {
                    groups: 2,
                    sync_every: 1_000,
                });
            let report = run_scenario(&sc).expect("run");
            assert_eq!(report.sample.len(), 8, "engine {engine}");
            assert_eq!(report.group_stats.len(), 2, "engine {engine}");
            assert!(report.syncs() >= 2, "engine {engine}");
            assert!(
                report.invariants_ok(),
                "engine {engine}: {:?}",
                report.violations
            );
        }
    }

    /// Every synthetic workload: the four whose weights the shard sources
    /// finish, plus unit and the materialized rank permutation (identity
    /// map).
    fn synthetic_workloads() -> [Workload; 6] {
        [
            Workload::Unit,
            Workload::Uniform { lo: 1.0, hi: 9.0 },
            Workload::Zipf { alpha: 1.1 },
            Workload::ZipfRanked { alpha: 1.1 },
            Workload::Pareto {
                alpha: 1.2,
                w_min: 1.0,
            },
            Workload::Lognormal {
                mu: 1.0,
                sigma: 1.0,
            },
        ]
    }

    #[test]
    fn level_sets_off_makes_engines_bit_identical() {
        // With every key site-drawn, the sample is a deterministic
        // function of the scenario seed: lockstep, which reads the
        // composed stream, and threads and epoll, whose shard sources
        // finish the dispatched draws, must agree bit for bit, flat and
        // tree, on every synthetic workload (the cross-engine determinism
        // the proptest suite exercises at scale). Their total weights,
        // summed per shard, stay within rounding of lockstep's sequential
        // sum. 40k items over 4 shards is several frames per shard.
        for workload in synthetic_workloads() {
            for topology in [
                Topology::Flat,
                Topology::Tree {
                    groups: 2,
                    sync_every: 5_000,
                },
            ] {
                let base = Scenario::new(EngineKind::Lockstep, 4, 6)
                    .with_n(40_000)
                    .with_workload(workload.clone())
                    .with_topology(topology)
                    .with_level_sets(false)
                    .with_seed(1234);
                let lockstep = run_scenario(&base).expect("lockstep");
                for engine in [EngineKind::Threads, EngineKind::Epoll] {
                    let mut sc = base.clone();
                    sc.engine = engine;
                    let run = run_scenario(&sc).expect("concurrent run");
                    let what = format!("{workload:?} {topology:?} {engine}");
                    assert_eq!(key_bits(&lockstep.sample), key_bits(&run.sample), "{what}");
                    assert_eq!(run.items, lockstep.items, "{what}");
                    let rel =
                        (run.total_weight - lockstep.total_weight).abs() / lockstep.total_weight;
                    assert!(rel <= 1e-12, "{what}: total weight off by {rel:e}");
                    let d = run.dispatcher.expect("dispatcher stats");
                    assert_eq!(d.weight, run.total_weight, "{what}");
                }
            }
        }
    }

    /// Counts its wakes.
    #[derive(Default)]
    struct WakeCount(AtomicU64);
    impl std::task::Wake for WakeCount {
        fn wake(self: Arc<Self>) {
            self.wake_by_ref();
        }
        fn wake_by_ref(self: &Arc<Self>) {
            // ordering: Relaxed — a count read after the feeder is joined.
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn shard_source_finishes_each_item_once_and_wakes_its_worker() {
        // Zipf's map is not idempotent: finishing an item twice, or
        // handing out a raw draw, changes its weight. The feeder wakes
        // the consumer's worker once per frame and once when it closes
        // the queue: a worker parks without a timeout.
        let n = 2 * FRAME_ITEMS as u64 + 500;
        let want: Vec<Item> = zipf_stream(n, 1.1, 5).collect();
        let staged = zipf_staged(n, 1.1, 5);
        let (dispatcher, mut shards, weights) = Dispatcher::new(1, staged.map);
        let mut shard = shards.pop().unwrap();
        let wakes = Arc::new(WakeCount::default());
        shard.set_waker(&std::task::Waker::from(Arc::clone(&wakes)));
        let partitioner = Partitioner::new(Partition::RoundRobin, 1, 0);
        let draws: Box<dyn ItemSource> = Box::new(staged.draws);
        let feeder = thread::spawn(move || dispatcher.run(draws, partitioner));
        let mut got: Vec<Item> = Vec::new();
        loop {
            match shard.poll() {
                Feed::Frame(frame) => got.extend(frame),
                Feed::Pending => thread::yield_now(),
                Feed::Done => break,
            }
        }
        let stats = feeder.join().unwrap();
        assert_eq!(stats.frames, 3);
        // ordering: Relaxed — the feeder was joined above.
        assert_eq!(wakes.0.load(Ordering::Relaxed), 3 + 1, "3 frames, 1 close");
        let bits = |items: &[Item]| -> Vec<(u64, u64)> {
            items
                .iter()
                .map(|it| (it.id, it.weight.to_bits()))
                .collect()
        };
        assert_eq!(bits(&got), bits(&want));
        let sum = want.iter().fold(0.0, |acc, it| acc + it.weight);
        // ordering: Relaxed — the shard source lives on this thread.
        let published = f64::from_bits(weights[0].load(Ordering::Relaxed));
        assert_eq!(published.to_bits(), sum.to_bits());
    }

    #[test]
    fn in_memory_workload_streams_through() {
        let items: Vec<Item> = (0..100u64)
            .map(|i| Item::new(i, 1.0 + (i % 7) as f64))
            .collect();
        let sc = Scenario::new(EngineKind::Threads, 2, 4)
            .with_workload(Workload::items(items))
            .with_n(0); // ignored by in-memory sources
        let report = run_scenario(&sc).expect("run");
        assert_eq!(report.items, 100);
        assert_eq!(report.sample.len(), 4);
    }

    #[test]
    fn dispatcher_bounds_are_small_and_respected() {
        let sc = Scenario::new(EngineKind::Threads, 4, 8)
            .with_n(300_000)
            .with_workload(Workload::Unit);
        let report = run_scenario(&sc).expect("run");
        let d = report.dispatcher.expect("stats");
        assert_eq!(d.items, 300_000);
        assert!(d.peak_in_flight_frames <= d.in_flight_bound());
        // The bounded window is a small constant fraction of the stream.
        assert!(
            d.buffered_items_bound() < 300_000,
            "buffer bound {} not < n",
            d.buffered_items_bound()
        );
    }

    #[test]
    fn csv_workload_errors_cleanly() {
        let sc = Scenario::new(EngineKind::Threads, 2, 4)
            .with_workload(Workload::Csv("/nonexistent/stream.csv".into()));
        let err = run_scenario(&sc).unwrap_err();
        assert!(matches!(err, RuntimeError::InvalidScenario(_)), "{err}");
    }

    #[test]
    fn every_query_runs_on_every_engine_and_topology() {
        for query in [
            Query::Swor,
            Query::L1 {
                eps: 0.25,
                delta: 0.25,
            },
            Query::ResidualHh {
                eps: 0.25,
                delta: 0.1,
            },
            Query::SlidingWindow { window: 5_000 },
        ] {
            for engine in [EngineKind::Lockstep, EngineKind::Threads, EngineKind::Epoll] {
                for topology in [
                    Topology::Flat,
                    Topology::Tree {
                        groups: 2,
                        sync_every: 2_000,
                    },
                ] {
                    let sc = Scenario::new(engine, 4, 16)
                        .with_n(20_000)
                        .with_workload(Workload::Zipf { alpha: 1.2 })
                        .with_topology(topology)
                        .with_query(query);
                    let report = run_scenario(&sc).unwrap_or_else(|e| {
                        panic!("{query:?} on {engine}/{topology:?} failed: {e}")
                    });
                    assert_eq!(report.items, 20_000, "{query:?} {engine} {topology:?}");
                    assert!(
                        report.invariants_ok(),
                        "{query:?} {engine} {topology:?}: {:?}",
                        report.violations
                    );
                    assert!(report.total_weight > 0.0);
                    match (&report.query, &report.answer) {
                        (Query::Swor, QueryAnswer::Swor) => {
                            assert_eq!(report.sample.len(), 16);
                        }
                        (Query::L1 { .. }, QueryAnswer::L1 { rel_error, .. }) => {
                            assert!(*rel_error < 0.5, "L1 rel error {rel_error}");
                        }
                        (
                            Query::ResidualHh { .. },
                            QueryAnswer::ResidualHh {
                                candidates, recall, ..
                            },
                        ) => {
                            assert!(!candidates.is_empty());
                            assert!(*recall >= 0.0);
                        }
                        (
                            Query::SlidingWindow { window },
                            QueryAnswer::SlidingWindow { window: w },
                        ) => {
                            assert_eq!(window, w);
                            let cutoff = 20_000u64 - window;
                            assert!(report.sample.iter().all(|kd| kd.item.id >= cutoff));
                            assert_eq!(report.sample.len(), 16);
                        }
                        other => panic!("mismatched query/answer: {other:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn l1_query_with_stream_shorter_than_sample_size_is_healthy() {
        // Regression (review finding): L1 inserts ℓ keyed duplicates per
        // item, so the sample fills to min(s, items·ℓ) — a short stream
        // must not trip the one-key-per-item sample-size invariant.
        let sc = Scenario::new(EngineKind::Lockstep, 2, 4)
            .with_n(200)
            .with_workload(Workload::Unit)
            .with_query(Query::L1 {
                eps: 0.2,
                delta: 0.25,
            });
        let report = run_scenario(&sc).expect("run");
        assert_eq!(report.items, 200);
        assert!(report.items < report.s as u64, "test premise: n < s_eff");
        assert_eq!(report.sample.len(), report.s, "filled by duplicates");
        assert!(report.invariants_ok(), "{:?}", report.violations);
    }

    #[test]
    fn rhh_query_recovers_planted_hitters() {
        // The Theorem 4 instance: residual-skew stream, recall vs the
        // exact oracle must be 1.0 on the lockstep substrate.
        for engine in [EngineKind::Lockstep, EngineKind::Threads] {
            let sc = Scenario::new(engine, 4, 8)
                .with_n(30_000)
                .with_workload(Workload::ResidualSkew { top: 4 })
                .with_query(Query::ResidualHh {
                    eps: 0.2,
                    delta: 0.05,
                });
            let report = run_scenario(&sc).expect("run");
            match report.answer {
                QueryAnswer::ResidualHh {
                    required, recall, ..
                } => {
                    assert!(required > 0, "oracle found no required hitters");
                    assert!(
                        recall >= 0.99,
                        "engine {engine}: recall {recall} of {required} required"
                    );
                }
                other => panic!("wrong answer shape {other:?}"),
            }
        }
    }

    #[test]
    fn window_query_matches_min_of_window_and_stream() {
        // Window larger than the stream: the sample covers everything.
        let sc = Scenario::new(EngineKind::Threads, 2, 8)
            .with_n(1_000)
            .with_query(Query::SlidingWindow { window: 50_000 })
            .with_workload(Workload::Unit);
        let report = run_scenario(&sc).expect("run");
        assert_eq!(report.sample.len(), 8);
        assert!(report.invariants_ok(), "{:?}", report.violations);
        // Regression (review finding): s ≥ n ≤ window must sample every
        // item, including arrival index 0 — the saturating expiry cutoff
        // used to drop it.
        let sc = Scenario::new(EngineKind::Lockstep, 2, 64)
            .with_n(50)
            .with_query(Query::SlidingWindow { window: 100 })
            .with_workload(Workload::Unit);
        let report = run_scenario(&sc).expect("run");
        assert_eq!(report.sample.len(), 50, "{:?}", report.violations);
        assert!(report.invariants_ok(), "{:?}", report.violations);
        assert!(report.sample.iter().any(|kd| kd.item.id == 0));
        // Stream smaller than s: sample is the whole window.
        let sc = Scenario::new(EngineKind::Threads, 2, 64)
            .with_n(100)
            .with_query(Query::SlidingWindow { window: 10 })
            .with_workload(Workload::Unit);
        let report = run_scenario(&sc).expect("run");
        assert_eq!(report.sample.len(), 10, "window-limited sample");
        assert!(report.invariants_ok(), "{:?}", report.violations);
    }
}
