//! Differential check of the sites' per-item fast paths.
//!
//! `SworSite` and `L1Site` read levels from a `LevelTable` and skip the
//! `ln` for draws that cannot clear the threshold. The references below are
//! their `observe` as it was before either change: `level_of` per item, one
//! `ln` per keyed item, `geometric_trials` per gap. Both are fed the same
//! `zipf_iid:1.1` items and the same broadcasts — injected ones (level
//! saturations, θ = 1e-6, a jump to θ = 1e300) and those of a live
//! coordinator — plus a stream of ever heavier items whose every copy
//! clears, and every up-message must be bit-identical, in order.

use std::collections::HashMap;

use dwrs::apps::L1Site;
use dwrs::core::keys::{key_above, p_key_above};
use dwrs::core::rng::Rng;
use dwrs::core::swor::{
    level_of, DownMsg, LevelBits, SworConfig, SworCoordinator, SworSite, UpMsg,
};
use dwrs::core::topk::TopK;
use dwrs::core::{Item, Keyed};
use dwrs::sim::SiteNode;
use dwrs::workloads::zipf_stream;

const ITEMS: u64 = 200_000;

/// `SworSite::observe` before the fast path.
struct RefSworSite {
    r: f64,
    level_sets_enabled: bool,
    threshold: f64,
    saturated: LevelBits,
    rng: Rng,
}

impl RefSworSite {
    fn new(cfg: &SworConfig, seed: u64) -> Self {
        Self {
            r: cfg.r(),
            level_sets_enabled: cfg.level_sets_enabled,
            threshold: 0.0,
            saturated: LevelBits::new(),
            rng: Rng::new(seed),
        }
    }

    fn observe(&mut self, item: Item) -> Option<UpMsg> {
        let level = level_of(item.weight, self.r);
        if self.level_sets_enabled && !self.saturated.get(level) {
            return Some(UpMsg::Early { item });
        }
        let key = item.weight / self.rng.exp();
        (key > self.threshold).then_some(UpMsg::Regular { item, key })
    }

    fn receive(&mut self, msg: &DownMsg) {
        match *msg {
            DownMsg::LevelSaturated { level } => self.saturated.set(level),
            DownMsg::UpdateEpoch { threshold } => {
                if threshold > self.threshold {
                    self.threshold = threshold;
                }
            }
        }
    }
}

/// `geometric_trials` before it was split around its draw.
fn ref_geometric_trials(rng: &mut Rng, p: f64) -> u64 {
    if p <= 0.0 {
        return u64::MAX;
    }
    if p >= 1.0 {
        return 1;
    }
    let g = (rng.open01().ln() / (-p).ln_1p()).floor();
    if g >= u64::MAX as f64 {
        u64::MAX
    } else {
        g as u64 + 1
    }
}

/// `L1Site::observe` before the fast path.
struct RefL1Site {
    ell: u64,
    r: f64,
    level_capacity: u64,
    level_sets_enabled: bool,
    threshold: f64,
    saturated: LevelBits,
    early_sent: HashMap<u32, u64>,
    sent_keys: TopK,
    rng: Rng,
}

impl RefL1Site {
    fn new(cfg: &SworConfig, ell: u64, seed: u64) -> Self {
        Self {
            ell,
            r: cfg.r(),
            level_capacity: cfg.level_capacity() as u64,
            level_sets_enabled: cfg.level_sets_enabled,
            threshold: 0.0,
            saturated: LevelBits::new(),
            early_sent: HashMap::new(),
            sent_keys: TopK::new(cfg.sample_size),
            rng: Rng::new(seed),
        }
    }

    fn observe(&mut self, item: Item, out: &mut Vec<UpMsg>) {
        let w = item.weight;
        let level = level_of(w, self.r);
        let mut remaining = self.ell;
        if self.level_sets_enabled && !self.saturated.get(level) {
            let sent = self.early_sent.entry(level).or_insert(0);
            let burst = remaining.min(self.level_capacity.saturating_sub(*sent));
            for _ in 0..burst {
                out.push(UpMsg::Early { item });
            }
            *sent += burst;
            remaining -= burst;
            if *sent >= self.level_capacity {
                self.saturated.set(level);
            }
            if remaining == 0 {
                return;
            }
        }
        loop {
            let threshold = self.threshold.max(self.sent_keys.u());
            let p = p_key_above(w, threshold);
            let gap = ref_geometric_trials(&mut self.rng, p);
            if gap > remaining {
                return;
            }
            remaining -= gap;
            let key = key_above(w, threshold, &mut self.rng);
            self.sent_keys.offer(Keyed::new(item, key));
            out.push(UpMsg::Regular { item, key });
        }
    }

    fn receive(&mut self, msg: &DownMsg) {
        match *msg {
            DownMsg::LevelSaturated { level } => self.saturated.set(level),
            DownMsg::UpdateEpoch { threshold } => {
                if threshold > self.threshold {
                    self.threshold = threshold;
                }
            }
        }
    }
}

/// One up-message as bits, so equal means bit-identical.
fn bits(msg: &UpMsg) -> (u8, u64, u64, u64) {
    match *msg {
        UpMsg::Early { item } => (0, item.id, item.weight.to_bits(), 0),
        UpMsg::Regular { item, key } => (1, item.id, item.weight.to_bits(), key.to_bits()),
    }
}

/// The configurations under test: r = 2, r = 15.625 (k = 1000, s = 64),
/// an `r_override` of 1.5, and level sets off.
fn configs() -> Vec<(&'static str, SworConfig)> {
    vec![
        ("r=2", SworConfig::new(64, 8)),
        ("r=15.625", SworConfig::new(64, 1000)),
        ("r_override=1.5", SworConfig::new(64, 8).with_r(1.5)),
        (
            "no level sets",
            SworConfig::new(64, 8).with_level_sets(false),
        ),
    ]
}

/// Broadcasts injected before item `at`: half the levels, then all of them
/// saturate, while θ walks from 1e-6 through the steady-state range to
/// 1e300.
fn injected(at: u64) -> Vec<DownMsg> {
    let epoch = |threshold| vec![DownMsg::UpdateEpoch { threshold }];
    match at {
        20_000 => (0..64)
            .step_by(2)
            .map(|level| DownMsg::LevelSaturated { level })
            .collect(),
        40_000 => epoch(1e-6),
        60_000 => (0..2_000)
            .map(|level| DownMsg::LevelSaturated { level })
            .collect(),
        90_000 => epoch(2.0),
        110_000 => epoch(4e4),
        140_000 => epoch(1e8),
        160_000 => epoch(1e15),
        180_000 => epoch(1e300),
        _ => Vec::new(),
    }
}

/// Asserts two message sequences are bit-identical, in order.
fn assert_same(got: &[UpMsg], want: &[UpMsg], name: &str, id: u64) {
    let got: Vec<_> = got.iter().map(bits).collect();
    let want: Vec<_> = want.iter().map(bits).collect();
    assert_eq!(got, want, "{name}, item {id}");
}

#[test]
fn swor_site_matches_reference_under_injected_broadcasts() {
    for (name, cfg) in configs() {
        let (mut site, mut reference) = (SworSite::new(&cfg, 11), RefSworSite::new(&cfg, 11));
        let mut sent = 0u64;
        for item in zipf_stream(ITEMS, 1.1, 1) {
            for d in injected(item.id) {
                site.receive(&d);
                reference.receive(&d);
            }
            let (got, want) = (site.observe(item), reference.observe(item));
            assert_same(got.as_slice(), want.as_slice(), name, item.id);
            sent += u64::from(got.is_some());
        }
        assert!(
            site.stats.filtered > ITEMS / 4,
            "{name}: too few filtered items"
        );
        assert!(sent > 1_000, "{name}: too few messages ({sent})");
    }
}

#[test]
fn swor_site_matches_reference_against_a_live_coordinator() {
    for (name, cfg) in configs() {
        let k = 4;
        let mut sites: Vec<_> = (0..k).map(|i| SworSite::new(&cfg, 30 + i)).collect();
        let mut refs: Vec<_> = (0..k).map(|i| RefSworSite::new(&cfg, 30 + i)).collect();
        let mut coord = SworCoordinator::new(cfg.clone(), 7);
        let mut downs = Vec::new();
        for item in zipf_stream(ITEMS, 1.1, 2) {
            let i = (item.id % k) as usize;
            let (got, want) = (sites[i].observe(item), refs[i].observe(item));
            assert_same(got.as_slice(), want.as_slice(), name, item.id);
            if let Some(up) = got {
                coord.receive(up, &mut downs);
                for d in downs.drain(..) {
                    sites.iter_mut().for_each(|s| s.receive(&d));
                    refs.iter_mut().for_each(|s| s.receive(&d));
                }
            }
        }
        assert!(coord.epoch().is_some(), "{name}: no epoch was ever entered");
    }
}

const ELL: u64 = 40;

#[test]
fn l1_site_matches_reference_under_injected_broadcasts() {
    for (name, cfg) in configs() {
        let mut site = L1Site::new(&cfg, ELL, 21);
        let mut reference = RefL1Site::new(&cfg, ELL, 21);
        let (mut got, mut want) = (Vec::new(), Vec::new());
        let mut regular = 0usize;
        for item in zipf_stream(ITEMS, 1.1, 3) {
            for d in injected(item.id) {
                SiteNode::receive(&mut site, &d);
                reference.receive(&d);
            }
            site.observe(item, &mut got);
            reference.observe(item, &mut want);
            assert_same(&got, &want, name, item.id);
            regular += got
                .iter()
                .filter(|m| matches!(m, UpMsg::Regular { .. }))
                .count();
            got.clear();
            want.clear();
        }
        assert!(
            regular > 500,
            "{name}: too few regular messages ({regular})"
        );
    }
}

#[test]
fn l1_site_matches_reference_against_a_live_coordinator() {
    for (name, cfg) in configs() {
        let k = 4;
        let mut sites: Vec<_> = (0..k).map(|i| L1Site::new(&cfg, ELL, 40 + i)).collect();
        let mut refs: Vec<_> = (0..k).map(|i| RefL1Site::new(&cfg, ELL, 40 + i)).collect();
        let mut coord = SworCoordinator::new(cfg.clone(), 9);
        let (mut got, mut want, mut downs) = (Vec::new(), Vec::new(), Vec::new());
        for item in zipf_stream(ITEMS, 1.1, 4) {
            let i = (item.id % k) as usize;
            sites[i].observe(item, &mut got);
            refs[i].observe(item, &mut want);
            assert_same(&got, &want, name, item.id);
            want.clear();
            for up in got.drain(..) {
                coord.receive(up, &mut downs);
            }
            for d in downs.drain(..) {
                sites.iter_mut().for_each(|s| SiteNode::receive(s, &d));
                refs.iter_mut().for_each(|s| s.receive(&d));
            }
        }
        assert!(coord.epoch().is_some(), "{name}: no epoch was ever entered");
    }
}

#[test]
fn l1_site_matches_reference_when_every_copy_clears() {
    // Every 50th item outweighs the sent keys a hundredfold, so each of its
    // copies clears with p = 1 (no draw) and the regular phase asks once
    // more with no copies left: that last gap must not draw either.
    let saturate_all: Vec<_> = (0..2_000)
        .map(|level| DownMsg::LevelSaturated { level })
        .collect();
    for (name, cfg) in configs() {
        let mut site = L1Site::new(&cfg, ELL, 61);
        let mut reference = RefL1Site::new(&cfg, ELL, 61);
        for d in &saturate_all {
            SiteNode::receive(&mut site, d);
            reference.receive(d);
        }
        let (mut got, mut want) = (Vec::new(), Vec::new());
        let mut all_cleared = 0;
        for id in 0..7_500u64 {
            let weight = if id % 50 == 49 {
                100f64.powi((id / 50 + 1) as i32)
            } else {
                1.0 + (id % 7) as f64
            };
            let item = Item::new(id, weight);
            site.observe(item, &mut got);
            reference.observe(item, &mut want);
            assert_same(&got, &want, name, id);
            all_cleared += usize::from(got.len() as u64 == ELL);
            got.clear();
            want.clear();
        }
        assert!(
            all_cleared > 100,
            "{name}: too few items with every copy sent ({all_cleared})"
        );
    }
}
