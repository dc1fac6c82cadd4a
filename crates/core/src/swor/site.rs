//! Site-side protocol — paper Algorithm 1.
//!
//! Per arriving item `(e, w)`:
//!
//! * if the item's level is not known to be saturated, forward it unfiltered
//!   as an *early* message (it will be withheld by the coordinator);
//! * otherwise draw `t ~ Exp(1)`, form the key `v = w/t` and forward
//!   `(e, w, v)` as a *regular* message iff `v` exceeds the current epoch
//!   threshold `u_i`.
//!
//! The site keeps O(1) words of state: the threshold and the saturation
//! bitset (Proposition 6), and spends O(1) time per item.
//!
//! That constant is kept small without changing a single message, key or
//! random draw:
//!
//! * the level comes from [`LevelTable`], which estimates it from the
//!   weight's bits and climbs the precomputed boundaries `powi(r, j)`,
//!   equal to [`super::level_of`] by construction;
//! * the key's uniform draw `u` is checked first by
//!   `keys::no_key_above`: since `−ln u ≥ 1 − u`, a draw with
//!   `1 − u ≥ (w/θ)(1 + δ)` cannot give a key above `θ`, so a filtered item
//!   usually costs no `ln`. Otherwise the key is formed from that same `u`
//!   exactly as [`crate::keys::key_for`] would.

use crate::item::Item;
use crate::keys::{key_from_draw, no_key_above};
use crate::rng::Rng;

use super::config::SworConfig;
use super::levels::{LevelBits, LevelTable};
use super::messages::{DownMsg, UpMsg};

/// Counters a site accumulates (not part of the protocol; zero messages).
#[derive(Clone, Copy, Debug, Default)]
pub struct SiteStats {
    /// Items observed.
    pub observed: u64,
    /// Early messages sent.
    pub early_sent: u64,
    /// Regular messages sent.
    pub regular_sent: u64,
    /// Regular items whose key fell at or below the threshold (no message).
    pub filtered: u64,
}

/// The per-site state of the weighted SWOR protocol (Algorithm 1).
#[derive(Debug)]
pub struct SworSite {
    levels: LevelTable,
    level_sets_enabled: bool,
    /// Current epoch threshold `u_i` (0 until the first epoch broadcast).
    threshold: f64,
    saturated: LevelBits,
    rng: Rng,
    /// Local counters.
    pub stats: SiteStats,
}

impl SworSite {
    /// Creates a site from the shared configuration and a per-site seed.
    pub fn new(cfg: &SworConfig, seed: u64) -> Self {
        Self {
            levels: LevelTable::new(cfg.r()),
            level_sets_enabled: cfg.level_sets_enabled,
            threshold: 0.0,
            saturated: LevelBits::new(),
            rng: Rng::new(seed),
            stats: SiteStats::default(),
        }
    }

    /// Current epoch threshold `u_i`.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Processes one stream item; returns at most one upstream message.
    pub fn observe(&mut self, item: Item) -> Option<UpMsg> {
        self.stats.observed += 1;
        let w = item.weight;
        if self.level_sets_enabled && !self.saturated.get(self.levels.level(w)) {
            self.stats.early_sent += 1;
            return Some(UpMsg::Early { item });
        }
        let u = self.rng.open01();
        if no_key_above(u, w, self.threshold) {
            debug_assert!(key_from_draw(w, u) <= self.threshold);
        } else {
            let key = key_from_draw(w, u);
            if key > self.threshold {
                self.stats.regular_sent += 1;
                return Some(UpMsg::Regular { item, key });
            }
        }
        self.stats.filtered += 1;
        None
    }

    /// Applies a coordinator broadcast.
    pub fn receive(&mut self, msg: &DownMsg) {
        match *msg {
            DownMsg::LevelSaturated { level } => self.saturated.set(level),
            DownMsg::UpdateEpoch { threshold } => {
                // Epochs only move forward; ignore stale reordered values
                // defensively (FIFO delivery makes this a no-op in practice).
                if threshold > self.threshold {
                    self.threshold = threshold;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SworConfig {
        SworConfig::new(4, 8) // r = 2
    }

    #[test]
    fn first_item_of_level_goes_early() {
        let mut site = SworSite::new(&cfg(), 1);
        let out = site.observe(Item::new(1, 5.0));
        assert!(matches!(out, Some(UpMsg::Early { .. })));
        assert_eq!(site.stats.early_sent, 1);
    }

    #[test]
    fn saturated_level_goes_regular() {
        let mut site = SworSite::new(&cfg(), 1);
        // weight 5.0, r=2 -> level 2
        site.receive(&DownMsg::LevelSaturated { level: 2 });
        let out = site.observe(Item::new(1, 5.0));
        match out {
            Some(UpMsg::Regular { item, key }) => {
                assert_eq!(item.id, 1);
                assert!(key > 0.0);
            }
            other => panic!("expected regular, got {other:?}"),
        }
    }

    #[test]
    fn threshold_filters_small_keys() {
        let mut site = SworSite::new(&cfg(), 2);
        site.receive(&DownMsg::LevelSaturated { level: 0 });
        site.receive(&DownMsg::UpdateEpoch { threshold: 1e12 });
        let mut sent = 0;
        for i in 0..5000u64 {
            if site.observe(Item::new(i, 1.0)).is_some() {
                sent += 1;
            }
        }
        // P(key > 1e12) = 1 - e^{-1e-12} ~ 1e-12: essentially everything is
        // filtered.
        assert_eq!(sent, 0, "sent {sent} messages over a huge threshold");
        assert_eq!(site.stats.filtered, 5000);
    }

    #[test]
    fn threshold_never_regresses() {
        let mut site = SworSite::new(&cfg(), 3);
        site.receive(&DownMsg::UpdateEpoch { threshold: 8.0 });
        site.receive(&DownMsg::UpdateEpoch { threshold: 2.0 });
        assert_eq!(site.threshold(), 8.0);
    }

    #[test]
    fn level_sets_disabled_sends_regular_immediately() {
        let mut cfg = cfg();
        cfg.level_sets_enabled = false;
        let mut site = SworSite::new(&cfg, 4);
        let out = site.observe(Item::new(9, 1e9));
        assert!(matches!(out, Some(UpMsg::Regular { .. })));
    }

    #[test]
    fn regular_send_rate_matches_key_tail() {
        // With threshold θ and unit weights, P(send) = 1 - e^{-1/θ}.
        let mut site = SworSite::new(&cfg(), 5);
        site.receive(&DownMsg::LevelSaturated { level: 0 });
        let theta = 4.0;
        site.receive(&DownMsg::UpdateEpoch { threshold: theta });
        let n = 200_000;
        let mut sent = 0u64;
        for i in 0..n {
            if site.observe(Item::new(i, 1.0)).is_some() {
                sent += 1;
            }
        }
        let p = crate::keys::p_key_above(1.0, theta);
        let emp = sent as f64 / n as f64;
        let se = (p * (1.0 - p) / n as f64).sqrt();
        assert!((emp - p).abs() < 6.0 * se, "emp {emp} vs p {p}");
    }
}
