//! Coordinator-side protocol — paper Algorithms 2 and 3, with the
//! O(s)-space optimization of Proposition 6.
//!
//! State:
//!
//! * `S` — the top-`s` keyed items among everything *released* to the
//!   internal sampler ([`crate::topk::TopK`]);
//! * withheld items — instead of storing each level set `D_j` in full, only
//!   the global top-`s` keyed items across all unsaturated levels are
//!   retained (`Slevel` in Proposition 6) together with an O(log)-bit
//!   counter per level. Dropped withheld items are provably never part of
//!   any query answer (they are beaten by `s` live items, and keys never
//!   change), so query behaviour is identical to Algorithm 2 — this is
//!   property-tested against [`super::faithful::FaithfulCoordinator`].
//!
//! On level saturation the retained items of that level are released into
//! `S` via `Add-to-Sample` (Algorithm 3) and a `LevelSaturated` broadcast is
//! issued. Whenever `u` (s-th largest key, 0 before `S` fills) crosses into
//! a new `[r^j, r^(j+1))`, an `UpdateEpoch(r^j)` broadcast is issued.
//!
//! The query answer at any time is the top-`s` of `S ∪ retained`, a correct
//! weighted SWOR of the whole stream so far (Theorem 3).

use crate::item::{Item, Keyed};
use crate::keys::assign_key;
use crate::rng::Rng;
use crate::topk::{top_s_of, TopK};

use super::config::SworConfig;
use super::levels::{epoch_of, epoch_threshold, LevelTable};
use super::messages::{DownMsg, UpMsg};

/// Coordinator-side counters (diagnostics only).
#[derive(Clone, Copy, Debug, Default)]
pub struct CoordStats {
    /// Early messages received.
    pub early_received: u64,
    /// Regular messages received.
    pub regular_received: u64,
    /// Regular messages that actually entered `S` (beat `u` on arrival).
    pub regular_accepted: u64,
    /// Level saturations (each causes one broadcast).
    pub saturations: u64,
    /// Epoch advances (each causes one broadcast).
    pub epoch_broadcasts: u64,
    /// The first epoch entered (set when `u` first reaches 1). Together
    /// with the final epoch this pins the epoch-broadcast count:
    /// `epoch_broadcasts = final_epoch - first_epoch + 1` — the unified
    /// down-path accounting the run-level invariants verify.
    pub first_epoch: Option<i64>,
    /// Withheld items dropped by the O(s)-space optimization.
    pub withheld_dropped: u64,
    /// Total weight of items known to lie in saturated level sets (the
    /// denominator of Lemma 1, as visible to the coordinator — site-filtered
    /// regular items are missing, making the measured fraction
    /// conservative).
    pub released_weight: f64,
    /// Maximum over releases of `w / released_weight` at release time — the
    /// quantity Lemma 1 bounds by `1/(4s)`.
    pub max_release_fraction: f64,
    /// *Stale* regular messages: a `Regular` whose key was at or below the
    /// threshold of the last epoch broadcast when it arrived. A site that
    /// held the coordinator's current state would not have sent it, so
    /// lockstep SWOR with prompt delivery counts zero; the concurrent
    /// engines' delayed delivery is what sends them.
    pub stale_regular: u64,
    /// *Stale* early messages: an `Early` for an already-saturated level
    /// whose coordinator-drawn key was at or below that same threshold
    /// (the sender had not yet seen the saturation broadcast, and the item
    /// would not have cleared its filter either).
    pub stale_early: u64,
}

/// Per-level bookkeeping: an O(log rs)-bit counter, the accumulated weight
/// (for the Lemma 1 diagnostic), and the saturation flag.
#[derive(Clone, Copy, Debug, Default)]
struct LevelInfo {
    count: u64,
    weight_sum: f64,
    saturated: bool,
}

/// Retained withheld items: global top-`s` among unsaturated level items.
///
/// `entries` stays in slot order: an insert into a full set overwrites its
/// victim's slot, and [`Withheld::drain_level`] keeps the survivors in
/// order, so a saturating level releases into `S` in slot order.
/// While the set is full, `heap` is a binary min-heap of its slots ordered
/// by `(key, slot)`; its root is the victim, the lowest slot among the
/// smallest keys. An early then costs O(1) to reject and O(log s) to
/// replace. The heap is rebuilt in O(s) whenever the set is full after the
/// insert that fills it, a drain (once per saturation) or a restore; while
/// the set is short, nothing reads it. Keys are never NaN, so
/// `(key, slot)` is a total order.
#[derive(Debug)]
struct Withheld {
    cap: usize,
    entries: Vec<(u32, Keyed)>,
    heap: Vec<usize>,
    dropped: u64,
}

impl Withheld {
    fn new(cap: usize) -> Self {
        Self {
            cap,
            entries: Vec::with_capacity(cap),
            heap: Vec::with_capacity(cap),
            dropped: 0,
        }
    }

    /// A set holding a snapshot's `entries` verbatim, slot for slot.
    fn from_entries(cap: usize, entries: Vec<(u32, Keyed)>, dropped: u64) -> Self {
        let mut withheld = Self::new(cap);
        withheld.entries.extend(entries);
        withheld.dropped = dropped;
        if withheld.entries.len() >= cap {
            withheld.build_heap();
        }
        withheld
    }

    /// Keeps the top-`cap` by key, replacing the heap's root when `keyed`
    /// beats it.
    fn insert(&mut self, level: u32, keyed: Keyed) {
        if self.entries.len() < self.cap {
            self.entries.push((level, keyed));
            if self.entries.len() == self.cap {
                self.build_heap();
            }
            return;
        }
        self.dropped += 1;
        if let Some(&victim) = self.heap.first() {
            if keyed.key > self.entries[victim].1.key {
                self.entries[victim] = (level, keyed);
                self.sift_down(0);
            }
        }
    }

    /// Removes and returns all retained items of `level`, in slot order.
    fn drain_level(&mut self, level: u32) -> Vec<Keyed> {
        let mut out = Vec::new();
        self.entries.retain(|&(l, k)| {
            if l == level {
                out.push(k);
                false
            } else {
                true
            }
        });
        if self.entries.len() >= self.cap {
            self.build_heap();
        }
        out
    }

    /// Whether slot `a` orders before slot `b`: the smaller key, and the
    /// lower slot among equal keys.
    fn before(&self, a: usize, b: usize) -> bool {
        let (ka, kb) = (self.entries[a].1.key, self.entries[b].1.key);
        ka < kb || (ka == kb && a < b)
    }

    /// Restores the heap order below `pos`.
    fn sift_down(&mut self, mut pos: usize) {
        let n = self.heap.len();
        loop {
            let mut min = pos;
            for child in [2 * pos + 1, 2 * pos + 2] {
                if child < n && self.before(self.heap[child], self.heap[min]) {
                    min = child;
                }
            }
            if min == pos {
                return;
            }
            self.heap.swap(pos, min);
            pos = min;
        }
    }

    /// Heapifies every slot, in O(s).
    #[cold]
    #[inline(never)]
    fn build_heap(&mut self) {
        self.heap.clear();
        self.heap.extend(0..self.entries.len());
        for pos in (0..self.heap.len() / 2).rev() {
            self.sift_down(pos);
        }
    }

    fn iter(&self) -> impl Iterator<Item = &Keyed> {
        self.entries.iter().map(|(_, k)| k)
    }
}

/// The weighted SWOR coordinator (Algorithms 2–3, Proposition 6 space
/// optimization).
#[derive(Debug)]
pub struct SworCoordinator {
    cfg: SworConfig,
    r: f64,
    level_table: LevelTable,
    level_capacity: u64,
    sample: TopK,
    withheld: Withheld,
    /// Indexed by level, one entry per level up to the largest seen.
    levels: Vec<LevelInfo>,
    epoch: Option<i64>,
    /// The threshold of the last epoch broadcast (0 before the first):
    /// what every site filters by once it has caught up.
    threshold: f64,
    rng: Rng,
    /// Diagnostics counters.
    pub stats: CoordStats,
}

impl SworCoordinator {
    /// Creates a coordinator from the shared configuration and a seed for
    /// the keys it draws on behalf of early items.
    pub fn new(cfg: SworConfig, seed: u64) -> Self {
        let r = cfg.r();
        let level_capacity = cfg.level_capacity() as u64;
        let s = cfg.sample_size;
        Self {
            cfg,
            r,
            level_table: LevelTable::new(r),
            level_capacity,
            sample: TopK::new(s),
            withheld: Withheld::new(s),
            levels: Vec::new(),
            epoch: None,
            threshold: 0.0,
            rng: Rng::new(seed),
            stats: CoordStats::default(),
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &SworConfig {
        &self.cfg
    }

    /// Current value of `u`, the s-th largest released key (0 before `S`
    /// fills) — the statistic that drives epochs and the L1 estimator.
    pub fn u(&self) -> f64 {
        self.sample.u()
    }

    /// Current epoch index (None until `u ≥ 1`).
    pub fn epoch(&self) -> Option<i64> {
        self.epoch
    }

    /// Handles one upstream message, appending any broadcasts to `out`.
    pub fn receive(&mut self, msg: UpMsg, out: &mut Vec<DownMsg>) {
        match msg {
            UpMsg::Early { item } => self.receive_early(item, out),
            UpMsg::Regular { item, key } => {
                self.stats.regular_received += 1;
                if key <= self.threshold {
                    self.stats.stale_regular += 1;
                }
                // Regular items belong to already-saturated levels: they
                // enter the Lemma 1 denominator whether or not accepted.
                self.track_release(item.weight);
                // Algorithm 2: accept iff the key beats the current u.
                if key > self.sample.u() {
                    self.stats.regular_accepted += 1;
                    self.add_to_sample(Keyed::new(item, key), out);
                }
            }
        }
    }

    fn receive_early(&mut self, item: Item, out: &mut Vec<DownMsg>) {
        self.stats.early_received += 1;
        let level = self.level_table.level(item.weight);
        if level as usize >= self.levels.len() {
            self.grow_levels(level);
        }
        let info = &mut self.levels[level as usize];
        if info.saturated {
            // A site with a stale saturation bit (possible under delayed
            // broadcast delivery): the level is already released, so treat
            // the item as released immediately.
            self.track_release(item.weight);
            let keyed = assign_key(item, &mut self.rng);
            if keyed.key <= self.threshold {
                self.stats.stale_early += 1;
            }
            self.add_to_sample(keyed, out);
            return;
        }
        info.count += 1;
        info.weight_sum += item.weight;
        let now_saturated = info.count >= self.level_capacity;
        // Generate the key at arrival (Algorithm 2 line "generate key").
        let keyed = assign_key(item, &mut self.rng);
        self.withheld.insert(level, keyed);
        self.stats.withheld_dropped = self.withheld.dropped;
        if now_saturated {
            self.saturate(level, out);
        }
    }

    /// Extends the level vector to hold `level`, as [`LevelTable`] grows its
    /// boundaries: off the per-message path.
    #[cold]
    #[inline(never)]
    fn grow_levels(&mut self, level: u32) {
        self.levels.resize(level as usize + 1, LevelInfo::default());
    }

    /// Marks `level` saturated, releases its retained items into `S` in
    /// arrival order and broadcasts the saturation: once per level.
    #[cold]
    #[inline(never)]
    fn saturate(&mut self, level: u32, out: &mut Vec<DownMsg>) {
        let info = &mut self.levels[level as usize];
        info.saturated = true;
        // Lemma 1 denominator: the whole level enters the released
        // weight at once (including any items the O(s)-space
        // optimization dropped from the withheld set).
        self.stats.released_weight += info.weight_sum;
        self.stats.saturations += 1;
        for k in self.withheld.drain_level(level) {
            let frac = k.item.weight / self.stats.released_weight;
            if frac > self.stats.max_release_fraction {
                self.stats.max_release_fraction = frac;
            }
            self.add_to_sample(k, out);
        }
        out.push(DownMsg::LevelSaturated { level });
    }

    /// Lemma 1 diagnostic update for a single item entering the set of
    /// released (saturated-level) items.
    fn track_release(&mut self, weight: f64) {
        self.stats.released_weight += weight;
        let frac = weight / self.stats.released_weight;
        if frac > self.stats.max_release_fraction {
            self.stats.max_release_fraction = frac;
        }
    }

    /// Algorithm 3: insert into `S`, evicting the minimum if necessary, and
    /// broadcast an epoch update for **every** power of `r` that `u`
    /// crossed.
    ///
    /// One broadcast per epoch crossed — not one per crossing event — keeps
    /// the downstream accounting a function of the epochs visited rather
    /// than of how they were visited. Under delayed delivery (the threads
    /// and epoll engines) a single accepted key can jump `u` across several
    /// epochs at once; coalescing those into one message made identical
    /// scenarios meter differently across engines, and between streaming
    /// and materialized runs of one engine, and it under-counts against
    /// the paper's `O(log(εW))`-epochs analysis, which charges each epoch
    /// its own broadcast.
    fn add_to_sample(&mut self, keyed: Keyed, out: &mut Vec<DownMsg>) {
        self.sample.offer(keyed);
        let new_epoch = epoch_of(self.sample.u(), self.r);
        if new_epoch != self.epoch {
            if let Some(j) = new_epoch {
                // u is nondecreasing, so epochs only move forward. Entering
                // the epoch machinery (None -> Some) announces only the
                // current epoch; afterwards every intermediate epoch is
                // announced in order, ending with the current one.
                let first = match self.epoch {
                    Some(prev) => prev + 1,
                    None => {
                        self.stats.first_epoch = Some(j);
                        j
                    }
                };
                self.epoch = new_epoch;
                for epoch in first..=j {
                    self.stats.epoch_broadcasts += 1;
                    self.threshold = epoch_threshold(epoch, self.r);
                    out.push(DownMsg::UpdateEpoch {
                        threshold: self.threshold,
                    });
                }
            }
        }
    }

    /// The continuously maintained weighted SWOR: top-`s` of
    /// `S ∪ withheld` (Theorem 3's query procedure). Sorted by key,
    /// descending.
    pub fn sample(&self) -> Vec<Keyed> {
        top_s_of(
            self.sample.iter().chain(self.withheld.iter()),
            self.cfg.sample_size,
        )
    }

    /// The contents of the released set `S`, sorted by decreasing key
    /// (diagnostics). Note this is **not** in general the top-`s` of all
    /// released keys: the O(s)-space optimization may have dropped a
    /// withheld key that outranked members of `S` — only the full query
    /// sample ([`Self::sample`]) is an exact top-`s` (of *all* keys).
    pub fn released_sample(&self) -> Vec<Keyed> {
        top_s_of(self.sample.iter(), self.cfg.sample_size)
    }

    /// Number of items currently in the released sample `S` (diagnostics).
    pub fn released_len(&self) -> usize {
        self.sample.len()
    }

    /// Whether `level` has saturated.
    pub fn is_level_saturated(&self, level: u32) -> bool {
        self.levels.get(level as usize).is_some_and(|i| i.saturated)
    }

    /// Number of items counted into `level` so far.
    pub fn level_count(&self, level: u32) -> u64 {
        self.levels.get(level as usize).map_or(0, |i| i.count)
    }

    /// Number of withheld items currently retained — at most `s` by the
    /// Proposition 6 space optimization (the faithful coordinator instead
    /// stores up to `4rs` per unsaturated level).
    pub fn withheld_len(&self) -> usize {
        self.withheld.entries.len()
    }

    /// Total weight currently withheld in unsaturated level sets. The
    /// coordinator knows it exactly (every withheld item arrived as an early
    /// message), which is what makes `u·s + withheld_weight` a good L1
    /// estimate (Section 1.2: "once the heavy hitters are withheld, the
    /// values of the keys ... provide good estimates of the total L1").
    /// Summed in ascending level order, so identical runs agree bit for bit.
    pub fn withheld_weight(&self) -> f64 {
        self.levels
            .iter()
            .filter(|i| !i.saturated)
            .map(|i| i.weight_sum)
            .sum()
    }

    /// Captures the full coordinator state for checkpointing / failover.
    /// Restoring via [`SworCoordinator::restore`] resumes the protocol with
    /// identical behaviour (keys still pending are preserved; the RNG state
    /// continues the same stream). `levels` lists every level that has a
    /// count or has saturated, in ascending order.
    pub fn snapshot(&self) -> CoordinatorSnapshot {
        CoordinatorSnapshot {
            config: self.cfg.clone(),
            sample: self.sample.sorted_desc(),
            withheld: self.withheld.entries.clone(),
            withheld_dropped: self.withheld.dropped,
            levels: self
                .levels
                .iter()
                .zip(0u32..)
                .filter(|(info, _)| info.count > 0 || info.saturated)
                .map(|(info, level)| LevelSnapshot {
                    level,
                    count: info.count,
                    weight_sum: info.weight_sum,
                    saturated: info.saturated,
                })
                .collect(),
            epoch: self.epoch,
            rng_state: self.rng.state(),
            stats: self.stats,
        }
    }

    /// Rebuilds a coordinator from a snapshot. Behaviour after restore is
    /// identical to the original up to ordering among exactly equal keys
    /// (probability zero under the continuous key distribution).
    pub fn restore(snap: CoordinatorSnapshot) -> Self {
        let r = snap.config.r();
        let level_capacity = snap.config.level_capacity() as u64;
        let s = snap.config.sample_size;
        let mut sample = TopK::new(s);
        // Re-offer in increasing key order so later (larger) entries keep
        // winning deterministic tie-breaks, mirroring the original fill.
        for keyed in snap.sample.iter().rev() {
            sample.offer(*keyed);
        }
        let withheld = Withheld::from_entries(s, snap.withheld, snap.withheld_dropped);
        let len = snap.levels.iter().map(|l| l.level as usize + 1).max();
        let mut levels = vec![LevelInfo::default(); len.unwrap_or_default()];
        for l in snap.levels {
            levels[l.level as usize] = LevelInfo {
                count: l.count,
                weight_sum: l.weight_sum,
                saturated: l.saturated,
            };
        }
        Self {
            cfg: snap.config,
            r,
            level_table: LevelTable::new(r),
            level_capacity,
            sample,
            withheld,
            levels,
            epoch: snap.epoch,
            threshold: snap.epoch.map_or(0.0, |j| epoch_threshold(j, r)),
            rng: Rng::from_state(snap.rng_state),
            stats: snap.stats,
        }
    }
}

/// Serializable-by-hand coordinator state (see
/// [`SworCoordinator::snapshot`]).
#[derive(Clone, Debug)]
pub struct CoordinatorSnapshot {
    /// Protocol configuration.
    pub config: SworConfig,
    /// Released sample `S`, sorted by decreasing key.
    pub sample: Vec<Keyed>,
    /// Retained withheld items with their levels.
    pub withheld: Vec<(u32, Keyed)>,
    /// Withheld items dropped so far (diagnostic continuity).
    pub withheld_dropped: u64,
    /// Per-level counters.
    pub levels: Vec<LevelSnapshot>,
    /// Current epoch index.
    pub epoch: Option<i64>,
    /// RNG state (continues the same stream after restore).
    pub rng_state: [u64; 4],
    /// Counters.
    pub stats: CoordStats,
}

/// One level's bookkeeping inside a [`CoordinatorSnapshot`].
#[derive(Clone, Copy, Debug)]
pub struct LevelSnapshot {
    /// Level index.
    pub level: u32,
    /// Items counted into the level.
    pub count: u64,
    /// Total weight counted into the level.
    pub weight_sum: f64,
    /// Whether the level has saturated.
    pub saturated: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::math::powi;

    fn small_cfg() -> SworConfig {
        // s=2, k=2 -> r=2, level capacity 16.
        SworConfig::new(2, 2)
    }

    #[test]
    fn early_items_withheld_until_saturation() {
        let cfg = small_cfg();
        let cap = cfg.level_capacity() as u64;
        let mut coord = SworCoordinator::new(cfg, 9);
        let mut out = Vec::new();
        for i in 0..cap - 1 {
            coord.receive(
                UpMsg::Early {
                    item: Item::new(i, 1.0),
                },
                &mut out,
            );
        }
        assert!(!coord.is_level_saturated(0));
        assert!(out.is_empty());
        assert_eq!(
            coord.released_len(),
            0,
            "nothing released before saturation"
        );
        // Saturating message releases the level and broadcasts.
        coord.receive(
            UpMsg::Early {
                item: Item::new(99, 1.0),
            },
            &mut out,
        );
        assert!(coord.is_level_saturated(0));
        assert!(out
            .iter()
            .any(|m| matches!(m, DownMsg::LevelSaturated { level: 0 })));
        assert_eq!(coord.released_len(), 2, "top-s retained items released");
    }

    #[test]
    fn query_includes_withheld_items() {
        let mut coord = SworCoordinator::new(small_cfg(), 1);
        let mut out = Vec::new();
        coord.receive(
            UpMsg::Early {
                item: Item::new(5, 100.0),
            },
            &mut out,
        );
        let sample = coord.sample();
        assert_eq!(sample.len(), 1);
        assert_eq!(sample[0].item.id, 5);
    }

    #[test]
    fn sample_size_is_min_t_s() {
        let mut coord = SworCoordinator::new(small_cfg(), 2);
        let mut out = Vec::new();
        for i in 0..10u64 {
            coord.receive(
                UpMsg::Early {
                    item: Item::new(i, 1.0),
                },
                &mut out,
            );
            let expect = ((i + 1) as usize).min(2);
            assert_eq!(coord.sample().len(), expect, "after {} items", i + 1);
        }
    }

    #[test]
    fn regular_below_u_rejected() {
        let mut coord = SworCoordinator::new(small_cfg(), 3);
        let mut out = Vec::new();
        // Fill S via regular messages with big keys.
        coord.receive(
            UpMsg::Regular {
                item: Item::new(1, 1.0),
                key: 100.0,
            },
            &mut out,
        );
        coord.receive(
            UpMsg::Regular {
                item: Item::new(2, 1.0),
                key: 50.0,
            },
            &mut out,
        );
        assert_eq!(coord.u(), 50.0);
        coord.receive(
            UpMsg::Regular {
                item: Item::new(3, 1.0),
                key: 10.0,
            },
            &mut out,
        );
        assert_eq!(coord.stats.regular_accepted, 2);
        let ids: Vec<u64> = coord.sample().iter().map(|k| k.item.id).collect();
        assert_eq!(ids, vec![1, 2]);
    }

    #[test]
    fn epoch_broadcast_on_power_crossing() {
        let mut coord = SworCoordinator::new(small_cfg(), 4);
        let mut out = Vec::new();
        coord.receive(
            UpMsg::Regular {
                item: Item::new(1, 1.0),
                key: 9.0,
            },
            &mut out,
        );
        assert!(out.is_empty(), "no epoch before S fills");
        coord.receive(
            UpMsg::Regular {
                item: Item::new(2, 1.0),
                key: 5.0,
            },
            &mut out,
        );
        // u = 5 in [4, 8) -> epoch 2, threshold 4.
        assert_eq!(coord.epoch(), Some(2));
        assert_eq!(out.len(), 1);
        assert!(matches!(
            out[0],
            DownMsg::UpdateEpoch { threshold } if threshold == 4.0
        ));
        // Raising u within the same epoch does not broadcast.
        out.clear();
        coord.receive(
            UpMsg::Regular {
                item: Item::new(3, 1.0),
                key: 7.0,
            },
            &mut out,
        );
        assert!(out.is_empty());
        // Advancing one epoch broadcasts once with the new threshold.
        coord.receive(
            UpMsg::Regular {
                item: Item::new(4, 1.0),
                key: 64.0,
            },
            &mut out,
        );
        // u = min(9 evicted? keys now {9,64} -> u = 9) in [8,16) -> epoch 3.
        assert_eq!(coord.epoch(), Some(3));
        assert_eq!(out.len(), 1);
        assert!(matches!(
            out[0],
            DownMsg::UpdateEpoch { threshold } if threshold == 8.0
        ));
        // Jumping multiple epochs at once broadcasts every epoch crossed,
        // in order — the down-path accounting counts epochs visited, not
        // crossing events (delayed delivery must meter like instant).
        out.clear();
        coord.receive(
            UpMsg::Regular {
                item: Item::new(5, 1.0),
                key: 1000.0,
            },
            &mut out,
        );
        // Keys now {1000, 64}: u = 64 in [64, 128) -> epoch 6; epochs 4,
        // 5 and 6 are each announced with their own threshold.
        assert_eq!(coord.epoch(), Some(6));
        let thresholds: Vec<f64> = out
            .iter()
            .map(|m| match m {
                DownMsg::UpdateEpoch { threshold } => *threshold,
                other => panic!("unexpected broadcast {other:?}"),
            })
            .collect();
        assert_eq!(thresholds, vec![16.0, 32.0, 64.0]);
        assert_eq!(coord.stats.epoch_broadcasts, 1 + 1 + 3);
    }

    #[test]
    fn stale_messages_count_against_the_last_epoch_threshold() {
        let cfg = small_cfg();
        let cap = cfg.level_capacity() as u64;
        let mut coord = SworCoordinator::new(cfg, 6);
        let mut out = Vec::new();
        let regular = |id, key| UpMsg::Regular {
            item: Item::new(id, 1.0),
            key,
        };
        // Before any epoch the threshold is 0: nothing is stale.
        coord.receive(regular(1, 9.0), &mut out);
        assert_eq!(coord.stats.stale_regular, 0);
        // u = 5 -> epoch 2, threshold 4: keys at or below 4 are stale
        // (rejected as well, since u ≥ the threshold); 4.5 is not stale
        // but still loses to u.
        coord.receive(regular(2, 5.0), &mut out);
        for (id, key) in [(3, 4.0), (4, 0.5), (5, 4.5)] {
            coord.receive(regular(id, key), &mut out);
        }
        assert_eq!(coord.stats.stale_regular, 2);
        assert_eq!(coord.stats.regular_accepted, 2);
        // Saturate level 0, then send it early messages, as a site that
        // missed the saturation broadcast would: each whose key is at or
        // below the current threshold is a stale early.
        for i in 0..cap {
            coord.receive(
                UpMsg::Early {
                    item: Item::new(100 + i, 1.0),
                },
                &mut out,
            );
        }
        assert!(coord.is_level_saturated(0));
        // The coordinator keys each of these with one draw from its RNG;
        // a copy of that RNG predicts every key. Keys that enter the
        // sample raise u, so the threshold moves as the loop runs.
        let mut rng = Rng::from_state(coord.snapshot().rng_state);
        let (mut below, mut above) = (0, 0);
        for i in 0..200u64 {
            let threshold = epoch_threshold(coord.epoch().expect("u passed 1"), 2.0);
            let item = Item::new(1_000 + i, 1.0);
            if assign_key(item, &mut rng).key <= threshold {
                below += 1;
            } else {
                above += 1;
            }
            coord.receive(UpMsg::Early { item }, &mut out);
        }
        assert!(below > 0 && above > 0, "{below} keys below, {above} above");
        assert_eq!(coord.stats.stale_early, below);
        assert_eq!(coord.stats.stale_regular, 2);
    }

    #[test]
    fn snapshot_restore_resumes_identically() {
        // Run one coordinator straight through; run another, snapshot and
        // restore it midway; both must answer queries identically at every
        // subsequent step (keys are drawn from identical RNG streams).
        let cfg = SworConfig::new(3, 4);
        let mut a = SworCoordinator::new(cfg.clone(), 99);
        let mut b = SworCoordinator::new(cfg, 99);
        let mut rng = Rng::new(55);
        let mut out = Vec::new();
        let msgs: Vec<UpMsg> = (0..300u64)
            .map(|i| {
                let w = 1.0 + (i % 17) as f64;
                if rng.bernoulli(0.6) {
                    UpMsg::Early {
                        item: Item::new(i, w),
                    }
                } else {
                    UpMsg::Regular {
                        item: Item::new(i, w),
                        key: w / rng.exp(),
                    }
                }
            })
            .collect();
        for (step, msg) in msgs.iter().enumerate() {
            a.receive(*msg, &mut out);
            out.clear();
            b.receive(*msg, &mut out);
            out.clear();
            if step == 150 {
                b = SworCoordinator::restore(b.snapshot());
            }
            let sa: Vec<(u64, u64)> = a
                .sample()
                .iter()
                .map(|k| (k.item.id, k.key.to_bits()))
                .collect();
            let sb: Vec<(u64, u64)> = b
                .sample()
                .iter()
                .map(|k| (k.item.id, k.key.to_bits()))
                .collect();
            assert_eq!(sa, sb, "diverged at step {step}");
            assert_eq!(a.u().to_bits(), b.u().to_bits());
            assert_eq!(a.epoch(), b.epoch());
        }
        assert_eq!(a.stats.early_received, b.stats.early_received);
        assert_eq!(a.stats.saturations, b.stats.saturations);
    }

    #[test]
    fn snapshot_preserves_withheld_weight() {
        let cfg = SworConfig::new(2, 2);
        let mut c = SworCoordinator::new(cfg, 3);
        let mut out = Vec::new();
        for i in 0..10u64 {
            c.receive(
                UpMsg::Early {
                    item: Item::new(i, 100.0),
                },
                &mut out,
            );
        }
        let snap = c.snapshot();
        let restored = SworCoordinator::restore(snap);
        assert_eq!(
            c.withheld_weight().to_bits(),
            restored.withheld_weight().to_bits()
        );
        assert_eq!(c.level_count(7), restored.level_count(7));
    }

    /// A linear-scan withheld set: the reference the heap's victim choice
    /// must match, ties included.
    struct ScanWithheld {
        cap: usize,
        entries: Vec<(u32, Keyed)>,
        dropped: u64,
    }

    impl ScanWithheld {
        fn scan_insert(&mut self, level: u32, keyed: Keyed) {
            if self.entries.len() < self.cap {
                self.entries.push((level, keyed));
                return;
            }
            let (mut min_idx, mut min_key) = (0usize, f64::INFINITY);
            for (i, (_, k)) in self.entries.iter().enumerate() {
                if k.key < min_key {
                    min_key = k.key;
                    min_idx = i;
                }
            }
            if keyed.key > min_key {
                self.entries[min_idx] = (level, keyed);
            }
            self.dropped += 1;
        }

        fn scan_drain(&mut self, level: u32) -> Vec<Keyed> {
            let mut out = Vec::new();
            self.entries.retain(|&(l, k)| {
                if l == level {
                    out.push(k);
                    false
                } else {
                    true
                }
            });
            out
        }
    }

    fn bits(entries: &[(u32, Keyed)]) -> Vec<(u32, u64, u64)> {
        entries
            .iter()
            .map(|&(l, k)| (l, k.item.id, k.key.to_bits()))
            .collect()
    }

    #[test]
    fn heap_victims_match_the_linear_scan_under_ties() {
        let mut rng = Rng::new(25);
        for trial in 0..400u64 {
            let cap = 1 + rng.index(8);
            // Three or four distinct keys per trial, the largest +∞ in half.
            let distinct = 3 + rng.index(2);
            let mut keys = [1.0, 2.0, 3.0, 4.0];
            if rng.bernoulli(0.5) {
                keys[distinct - 1] = f64::INFINITY;
            }
            let levels = 1 + rng.range(4) as u32;
            let mut heap = Withheld::new(cap);
            let mut scan = ScanWithheld {
                cap,
                entries: Vec::new(),
                dropped: 0,
            };
            for step in 0..300u64 {
                let level = rng.range(u64::from(levels)) as u32;
                if rng.bernoulli(0.15) {
                    let (got, want) = (heap.drain_level(level), scan.scan_drain(level));
                    let ids = |v: &[Keyed]| -> Vec<(u64, u64)> {
                        v.iter().map(|k| (k.item.id, k.key.to_bits())).collect()
                    };
                    assert_eq!(ids(&got), ids(&want), "trial {trial} step {step} drain");
                } else {
                    let key = keys[rng.index(distinct)];
                    let keyed = Keyed::new(Item::new(step, 1.0), key);
                    heap.insert(level, keyed);
                    scan.scan_insert(level, keyed);
                }
                if step == 150 {
                    heap = Withheld::from_entries(cap, heap.entries.clone(), heap.dropped);
                }
                assert_eq!(
                    bits(&heap.entries),
                    bits(&scan.entries),
                    "trial {trial} step {step}"
                );
                assert_eq!(heap.dropped, scan.dropped, "trial {trial} step {step}");
            }
        }
    }

    #[test]
    fn levels_list_and_sum_in_ascending_order() {
        // s = 64, k = 2: r = 2, so a weight in [1.3, 1.5) · 2^j lies in
        // level j, and no level saturates from one early.
        let feed = |coord: &mut SworCoordinator| {
            let mut out = Vec::new();
            for (i, j) in [5, 9, 13, 3, 1, 4, 14, 0, 7, 11, 2, 15, 6, 12, 8, 10]
                .into_iter()
                .enumerate()
            {
                let w = powi(2.0, j) * (1.3 + 0.01 * i as f64);
                coord.receive(
                    UpMsg::Early {
                        item: Item::new(i as u64, w),
                    },
                    &mut out,
                );
            }
        };
        let mut a = SworCoordinator::new(SworConfig::new(64, 2), 7);
        let mut b = SworCoordinator::new(SworConfig::new(64, 2), 7);
        feed(&mut a);
        feed(&mut b);
        let levels = |c: &SworCoordinator| -> Vec<u32> {
            c.snapshot().levels.iter().map(|l| l.level).collect()
        };
        assert_eq!(levels(&a), (0..16).collect::<Vec<u32>>());
        assert_eq!(levels(&a), levels(&b));
        let ascending = a
            .snapshot()
            .levels
            .iter()
            .fold(0.0, |sum, l| sum + l.weight_sum);
        assert_eq!(a.withheld_weight().to_bits(), ascending.to_bits());
        assert_eq!(a.withheld_weight().to_bits(), b.withheld_weight().to_bits());
    }

    #[test]
    fn stale_early_message_released_directly() {
        let cfg = small_cfg();
        let cap = cfg.level_capacity() as u64;
        let mut coord = SworCoordinator::new(cfg, 5);
        let mut out = Vec::new();
        for i in 0..cap {
            coord.receive(
                UpMsg::Early {
                    item: Item::new(i, 1.0),
                },
                &mut out,
            );
        }
        assert!(coord.is_level_saturated(0));
        let before = coord.level_count(0);
        // A stale early for the saturated level must not re-open it.
        coord.receive(
            UpMsg::Early {
                item: Item::new(1000, 1.0),
            },
            &mut out,
        );
        assert_eq!(coord.level_count(0), before);
        assert!(coord.is_level_saturated(0));
    }
}
