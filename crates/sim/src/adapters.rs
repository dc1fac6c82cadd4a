//! Adapters implementing the simulator traits for the protocols in
//! `dwrs-core`, plus convenience builders that wire up `k` seeded sites and
//! a coordinator into a [`Runner`].

use dwrs_core::framed::FrameCodec;
use dwrs_core::item::Keyed;
use dwrs_core::rng::mix;
use dwrs_core::swor::wire::WireError;
use dwrs_core::swor::{
    DownMsg, FaithfulCoordinator, NaiveCoordinator, NaiveSite, SworConfig, SworCoordinator,
    SworSite, SyncMsg, UpMsg,
};
use dwrs_core::swr::{SwrConfig, SwrDown, SwrUp, WeightedSwrCoordinator, WeightedSwrSite};
use dwrs_core::unweighted::swor::{TagConfig, TagCoordinator, TagDown, TagSite, TagUp};
use dwrs_core::Item;

use crate::protocol::{CoordinatorNode, Meter, Outbox, SiteNode};
use crate::runner::Runner;

// ---------------------------------------------------------------- weighted SWOR

impl Meter for UpMsg {
    fn kind(&self) -> &'static str {
        UpMsg::kind(self)
    }
    fn wire_bytes(&self) -> u64 {
        dwrs_core::swor::wire::up_len(self) as u64
    }
    fn is_early(&self) -> bool {
        matches!(self, UpMsg::Early { .. })
    }
}

impl Meter for DownMsg {
    fn kind(&self) -> &'static str {
        DownMsg::kind(self)
    }
    fn wire_bytes(&self) -> u64 {
        dwrs_core::swor::wire::down_len(self) as u64
    }
}

impl Meter for SyncMsg {
    fn kind(&self) -> &'static str {
        SyncMsg::kind(self)
    }
    /// Each synced sample entry costs one message in the paper's accounting
    /// (an empty sync is pure transport overhead, zero protocol messages).
    fn units(&self) -> u64 {
        self.sample.len() as u64
    }
    fn wire_bytes(&self) -> u64 {
        dwrs_core::swor::wire::sync_len(self) as u64
    }
}

impl SiteNode for SworSite {
    type Up = UpMsg;
    type Down = DownMsg;
    fn observe(&mut self, item: Item, out: &mut Vec<UpMsg>) {
        if let Some(msg) = SworSite::observe(self, item) {
            out.push(msg);
        }
    }
    fn receive(&mut self, msg: &DownMsg) {
        SworSite::receive(self, msg);
    }
}

impl CoordinatorNode for SworCoordinator {
    type Up = UpMsg;
    type Down = DownMsg;
    fn receive(&mut self, _from: usize, msg: UpMsg, out: &mut Outbox<DownMsg>) {
        let mut downs = Vec::new();
        SworCoordinator::receive(self, msg, &mut downs);
        for d in downs {
            out.broadcast(d);
        }
    }
}

impl CoordinatorNode for FaithfulCoordinator {
    type Up = UpMsg;
    type Down = DownMsg;
    fn receive(&mut self, _from: usize, msg: UpMsg, out: &mut Outbox<DownMsg>) {
        let mut downs = Vec::new();
        FaithfulCoordinator::receive(self, msg, &mut downs);
        for d in downs {
            out.broadcast(d);
        }
    }
}

/// Canonical per-group seed derivation for fan-in tree deployments: group
/// `gi` of a tree seeded with `seed` runs its intra-group protocol with
/// this seed (sites and aggregator then derive theirs via [`swor_site`] /
/// [`swor_coordinator`]). Every `dwrs-runtime` tree substrate — the
/// lockstep `LockstepTree` and the concurrent engines — constructs groups
/// through it, so identically-seeded trees are identical across
/// substrates, which is what makes their output distributions comparable.
pub fn tree_group_seed(seed: u64, group: usize) -> u64 {
    mix(seed, 0x7EE0 + group as u64)
}

/// Builds site `i` of a weighted-SWOR deployment. This is the canonical
/// seed derivation — every execution substrate (lockstep runner, the
/// `dwrs-runtime` engines, the daemon's attach clients) must construct
/// sites through it so identically-seeded deployments are identical
/// across substrates.
pub fn swor_site(cfg: &SworConfig, seed: u64, i: usize) -> SworSite {
    SworSite::new(cfg, mix(seed, 0x5173_0000 + i as u64))
}

/// Builds the O(s)-space weighted-SWOR coordinator of a deployment (the
/// canonical seed derivation; see [`swor_site`]).
pub fn swor_coordinator(cfg: SworConfig, seed: u64) -> SworCoordinator {
    SworCoordinator::new(cfg, mix(seed, 0xC00D))
}

/// Builds a full weighted-SWOR deployment: `k` seeded sites plus the
/// O(s)-space coordinator.
pub fn build_swor(cfg: SworConfig, seed: u64) -> Runner<SworSite, SworCoordinator> {
    let sites = (0..cfg.num_sites)
        .map(|i| swor_site(&cfg, seed, i))
        .collect();
    let coordinator = swor_coordinator(cfg, seed);
    Runner::new(coordinator, sites)
}

/// Builds the verbatim-Algorithm-2 deployment (full level-set storage).
pub fn build_swor_faithful(cfg: SworConfig, seed: u64) -> Runner<SworSite, FaithfulCoordinator> {
    let sites = (0..cfg.num_sites)
        .map(|i| swor_site(&cfg, seed, i))
        .collect();
    let coordinator = FaithfulCoordinator::new(cfg, mix(seed, 0xC00D));
    Runner::new(coordinator, sites)
}

// ---------------------------------------------------------------- naive SWOR

/// Uninhabited-ish downstream type for protocols with no coordinator→site
/// traffic (the naive baseline, the tree root's reply path).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NoDown;

impl Meter for NoDown {
    fn kind(&self) -> &'static str {
        "none"
    }
}

/// A `NoDown` value is never sent, but framed transports require both
/// directions of a link to have a codec: encoding emits nothing and any
/// received frame is rejected (nobody legitimately sends one).
impl FrameCodec for NoDown {
    fn encode(&self, _buf: &mut Vec<u8>) {}
    fn decode(buf: &[u8]) -> Result<(Self, usize), WireError> {
        Err(buf
            .first()
            .map_or(WireError::Truncated, |&t| WireError::BadTag(t)))
    }
}

impl Meter for Keyed {
    fn kind(&self) -> &'static str {
        "local_change"
    }
}

impl SiteNode for NaiveSite {
    type Up = Keyed;
    type Down = NoDown;
    fn observe(&mut self, item: Item, out: &mut Vec<Keyed>) {
        if let Some(k) = NaiveSite::observe(self, item) {
            out.push(k);
        }
    }
    fn receive(&mut self, _msg: &NoDown) {}
}

impl CoordinatorNode for NaiveCoordinator {
    type Up = Keyed;
    type Down = NoDown;
    fn receive(&mut self, _from: usize, msg: Keyed, _out: &mut Outbox<NoDown>) {
        NaiveCoordinator::receive(self, msg);
    }
}

/// Builds the naive `O(ks·log W)` baseline deployment.
pub fn build_naive(s: usize, k: usize, seed: u64) -> Runner<NaiveSite, NaiveCoordinator> {
    let sites = (0..k)
        .map(|i| NaiveSite::new(s, mix(seed, 0xA1FE_0000 + i as u64)))
        .collect();
    Runner::new(NaiveCoordinator::new(s), sites)
}

// ---------------------------------------------------------------- min-tag SWOR

impl Meter for TagUp {
    fn kind(&self) -> &'static str {
        "tag"
    }
}

impl Meter for TagDown {
    fn kind(&self) -> &'static str {
        "threshold"
    }
}

impl SiteNode for TagSite {
    type Up = TagUp;
    type Down = TagDown;
    fn observe(&mut self, item: Item, out: &mut Vec<TagUp>) {
        if let Some(m) = TagSite::observe(self, item) {
            out.push(m);
        }
    }
    fn receive(&mut self, msg: &TagDown) {
        TagSite::receive(self, msg);
    }
}

impl CoordinatorNode for TagCoordinator {
    type Up = TagUp;
    type Down = TagDown;
    fn receive(&mut self, _from: usize, msg: TagUp, out: &mut Outbox<TagDown>) {
        let mut downs = Vec::new();
        TagCoordinator::receive(self, msg, &mut downs);
        for d in downs {
            out.broadcast(d);
        }
    }
}

/// Builds the unweighted min-tag SWOR baseline deployment.
pub fn build_tag(cfg: TagConfig, seed: u64) -> Runner<TagSite, TagCoordinator> {
    let sites = (0..cfg.num_sites)
        .map(|i| TagSite::new(mix(seed, 0x7A60_0000 + i as u64)))
        .collect();
    Runner::new(TagCoordinator::new(cfg), sites)
}

// ---------------------------------------------------------------- weighted SWR

impl Meter for SwrUp {
    fn kind(&self) -> &'static str {
        "candidate"
    }
}

impl Meter for SwrDown {
    fn kind(&self) -> &'static str {
        "threshold"
    }
}

impl SiteNode for WeightedSwrSite {
    type Up = SwrUp;
    type Down = SwrDown;
    fn observe(&mut self, item: Item, out: &mut Vec<SwrUp>) {
        WeightedSwrSite::observe(self, item, out);
    }
    fn receive(&mut self, msg: &SwrDown) {
        WeightedSwrSite::receive(self, msg);
    }
}

impl CoordinatorNode for WeightedSwrCoordinator {
    type Up = SwrUp;
    type Down = SwrDown;
    fn receive(&mut self, _from: usize, msg: SwrUp, out: &mut Outbox<SwrDown>) {
        let mut downs = Vec::new();
        WeightedSwrCoordinator::receive(self, msg, &mut downs);
        for d in downs {
            out.broadcast(d);
        }
    }
}

/// Builds the distributed weighted SWR deployment (Corollary 1).
pub fn build_swr(cfg: SwrConfig, seed: u64) -> Runner<WeightedSwrSite, WeightedSwrCoordinator> {
    let sites = (0..cfg.num_sites)
        .map(|i| WeightedSwrSite::new(&cfg, mix(seed, 0x5172_0000 + i as u64)))
        .collect();
    Runner::new(WeightedSwrCoordinator::new(cfg), sites)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{assign_sites, Partition};

    #[test]
    fn swor_runner_end_to_end() {
        let cfg = SworConfig::new(8, 4);
        let mut r = build_swor(cfg, 42);
        let n = 5000usize;
        let sites = assign_sites(Partition::RoundRobin, 4, n, 1);
        let stream = sites
            .into_iter()
            .enumerate()
            .map(|(i, s)| (s, Item::new(i as u64, 1.0 + (i % 7) as f64)));
        r.run(stream);
        assert_eq!(r.coordinator.sample().len(), 8);
        assert!(r.metrics.up_total > 0);
        // Strong sublinearity: far fewer messages than items.
        assert!(
            r.metrics.total() < (n as u64) / 2,
            "total {} vs n {n}",
            r.metrics.total()
        );
    }

    #[test]
    fn swor_sample_valid_at_every_probe() {
        let cfg = SworConfig::new(4, 2);
        let mut r = build_swor(cfg, 7);
        let n = 300u64;
        let stream = (0..n).map(|i| ((i % 2) as usize, Item::new(i, 1.0)));
        let mut sizes = Vec::new();
        r.run_with_probes(stream, 1, |t, coord, _| {
            sizes.push((t, coord.sample().len()));
        });
        for &(t, len) in &sizes {
            assert_eq!(len as u64, t.min(4), "at time {t}");
        }
    }

    #[test]
    fn byte_accounting_matches_frame_sizes() {
        let cfg = SworConfig::new(8, 4);
        let mut r = build_swor(cfg, 21);
        let stream = (0..6000u64).map(|i| ((i % 4) as usize, Item::new(i, 1.0 + (i % 5) as f64)));
        r.run(stream);
        let m = &r.metrics;
        let expect_up = 17 * m.kind("early") + 25 * m.kind("regular");
        assert_eq!(m.up_bytes, expect_up, "upstream bytes must match frames");
        let expect_down = 5 * m.kind("level_saturated") + 9 * m.kind("update_epoch");
        assert_eq!(
            m.down_bytes, expect_down,
            "downstream bytes must match frames"
        );
        // Every message is O(1) machine words on the wire (Prop. 7).
        assert!(m.up_bytes <= 32 * m.up_total);
        assert!(m.down_bytes <= 32 * m.down_total);
    }

    #[test]
    fn swor_meter_uses_exact_frame_sizes() {
        // Satellite of ISSUE 2: the SWOR messages must report their exact
        // `swor::wire` frame sizes, not the generic two-word default.
        let early = UpMsg::Early {
            item: Item::new(1, 2.0),
        };
        let regular = UpMsg::Regular {
            item: Item::new(1, 2.0),
            key: 3.0,
        };
        let saturated = DownMsg::LevelSaturated { level: 4 };
        let epoch = DownMsg::UpdateEpoch { threshold: 8.0 };
        assert_eq!(Meter::wire_bytes(&early), 17);
        assert_eq!(Meter::wire_bytes(&regular), 25);
        assert_eq!(Meter::wire_bytes(&saturated), 5);
        assert_eq!(Meter::wire_bytes(&epoch), 9);
        // None of them coincide with the default model figure, so a
        // regression to the default would be caught here.
        let default_bytes = 2 * dwrs_core::swor::wire::WORD_BYTES as u64;
        for bytes in [17u64, 25, 5, 9] {
            assert_ne!(bytes, default_bytes);
        }
        // The default itself is the paper's two-words-per-message figure,
        // scaled by `units` for batched meters.
        struct Plain(u64);
        impl Meter for Plain {
            fn kind(&self) -> &'static str {
                "plain"
            }
            fn units(&self) -> u64 {
                self.0
            }
        }
        assert_eq!(Plain(1).wire_bytes(), 16);
        assert_eq!(Plain(3).wire_bytes(), 48);
    }

    #[test]
    fn naive_runner_counts_per_site_changes() {
        let mut r = build_naive(4, 2, 3);
        let stream = (0..2000u64).map(|i| ((i % 2) as usize, Item::new(i, 1.0)));
        r.run(stream);
        assert_eq!(r.metrics.down_total, 0, "naive protocol sends nothing down");
        assert_eq!(r.metrics.kind("local_change"), r.metrics.up_total);
        assert_eq!(r.coordinator.sample().len(), 4);
    }

    #[test]
    fn swr_runner_end_to_end() {
        let cfg = SwrConfig::new(6, 3);
        let mut r = build_swr(cfg, 11);
        let stream = (0..3000u64).map(|i| ((i % 3) as usize, Item::new(i, 1.0 + (i % 9) as f64)));
        r.run(stream);
        assert_eq!(r.coordinator.sample().len(), 6);
    }

    #[test]
    fn tag_runner_end_to_end() {
        let cfg = TagConfig::new(5, 2);
        let mut r = build_tag(cfg, 13);
        let stream = (0..4000u64).map(|i| ((i % 2) as usize, Item::unit(i)));
        r.run(stream);
        assert_eq!(r.coordinator.sample().len(), 5);
    }

    #[test]
    fn delayed_delivery_sends_pinned_stale_counts() {
        // The deterministic model of the concurrent engines' stale
        // messages: broadcasts reach sites `latency` rounds late, so sites
        // keep sending from thresholds and saturation bits the coordinator
        // has moved past. Prompt delivery sends none; delayed delivery's
        // counts are a pure function of the seed, pinned here.
        let cfg = SworConfig::new(16, 8);
        let run = |latency: Option<u64>| {
            let mut rng = dwrs_core::Rng::new(3);
            let stream = (0..40_000u64).map(|i| {
                let w = (40_000.0 / (1 + rng.range(40_000)) as f64).powf(1.1);
                ((i % 8) as usize, Item::new(i, w.max(1.0)))
            });
            let mut r = build_swor(cfg.clone(), 21);
            if let Some(l) = latency {
                r = r.with_latency(l);
            }
            r.run(stream);
            let st = r.coordinator.stats;
            (st.stale_regular, st.stale_early, r.metrics.up_total)
        };
        // (stale regular, stale early, up-messages): every message above
        // prompt delivery's count is a stale one, to within a few.
        assert_eq!(run(None), (0, 0, 1_472));
        assert_eq!(run(Some(0)), (0, 0, 1_472));
        assert_eq!(run(Some(64)), (40, 34, 1_544));
        assert_eq!(run(Some(1_024)), (112, 881, 2_460));
    }

    #[test]
    fn delayed_swor_remains_correct() {
        // With a large broadcast latency, sites keep stale thresholds; the
        // sample must still be exactly the top-s of all generated keys —
        // verified here by size and by comparing message counts vs instant.
        let cfg = SworConfig::new(8, 4);
        let n = 8000u64;
        let mk_stream = || (0..n).map(|i| ((i % 4) as usize, Item::new(i, 1.0 + (i % 11) as f64)));
        let mut instant = build_swor(cfg.clone(), 99);
        instant.run(mk_stream());
        let mut delayed = build_swor(cfg, 99).with_latency(50);
        delayed.run(mk_stream());
        assert_eq!(delayed.coordinator.sample().len(), 8);
        // Stale thresholds can only increase traffic.
        assert!(
            delayed.metrics.up_total >= instant.metrics.up_total / 2,
            "sanity: delayed {} vs instant {}",
            delayed.metrics.up_total,
            instant.metrics.up_total
        );
    }
}
