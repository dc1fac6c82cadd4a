//! Distributed runtime node for the paper's L1 tracker (Section 5,
//! Algorithm 1) — the site half of the duplication protocol, speaking the
//! stock weighted-SWOR wire messages so any [`dwrs_core::swor`]
//! coordinator (and any engine/transport) runs it unmodified.
//!
//! [`super::duplication::L1DupTracker`] simulates the whole deployment
//! centrally under instant broadcast delivery. This node is the *deployed*
//! version: it holds only the site-visible state (epoch threshold,
//! saturation bits) and tolerates stale views, exactly like the SWOR site
//! does. Two deviations from the naive "one message per duplicate"
//! execution keep it practical without changing any distribution:
//!
//! * **Early-phase cap.** A site keeps sending early duplicates for a
//!   level until it learns of saturation — but once it has sent
//!   `level_capacity` of them *itself*, the coordinator must have
//!   saturated (its count across all sites is at least this site's), so
//!   the site flips its local bit without waiting for the broadcast. This
//!   bounds early traffic at `k · capacity` per level (the delayed-
//!   delivery inflation of the instant bound) instead of `ℓ` per item.
//! * **Geometric collapse + self-threshold.** Regular-phase duplicates are
//!   generated by the same geometric-gap collapse the centralized tracker
//!   uses ([`dwrs_core::math::geometric_trials`]), against the site's
//!   current threshold. The effective threshold is the max of the last
//!   epoch broadcast and the s-th largest key the site has *itself* sent —
//!   a sound filter (any key in the final top-`s` beats it, since the
//!   coordinator's final `u` is at least the s-th largest of any subset of
//!   delivered keys), which caps the burst between saturation and the
//!   first epoch broadcast arriving.
//!
//! Per item the node does O(1) work beyond the messages it sends, and keeps
//! that constant small without changing any draw: the level comes from a
//! [`LevelTable`] (exact, no `ln`), and the regular phase's gap goes
//! through [`first_copy_above`], whose exact pre-check ends an item none of
//! whose `remaining` duplicates can clear the threshold
//! (`1 − u ≥ remaining·(w/θ)(1 + δ)`) before any `exp_m1`, `ln` or
//! `ln_1p`.

use dwrs_core::keys::{first_copy_above, key_above};
use dwrs_core::rng::Rng;
use dwrs_core::swor::{DownMsg, LevelBits, LevelTable, SworConfig, UpMsg};
use dwrs_core::topk::TopK;
use dwrs_core::{Item, Keyed};
use dwrs_sim::SiteNode;

/// Site node of the distributed duplication-based L1 tracker.
#[derive(Debug)]
pub struct L1Site {
    ell: u64,
    levels: LevelTable,
    level_capacity: u64,
    level_sets_enabled: bool,
    /// Last broadcast epoch threshold.
    threshold: f64,
    /// Locally known saturation bits (broadcast or self-inferred).
    saturated: LevelBits,
    /// Early duplicates this site has sent per level (for the cap).
    early_sent: std::collections::HashMap<u32, u64>,
    /// Top-`s` of the keys this site has sent — its `u` lower bound.
    sent_keys: TopK,
    rng: Rng,
}

impl L1Site {
    /// Creates the site. `cfg` is the underlying weighted-SWOR deployment
    /// configuration (sample size `s = Θ(ε⁻²·log(1/δ))`); `ell` is the
    /// duplication factor `ℓ = ⌈s/(2ε)⌉`; `seed` is the per-site key seed.
    pub fn new(cfg: &SworConfig, ell: u64, seed: u64) -> Self {
        assert!(ell >= 1, "duplication factor must be at least 1");
        Self {
            ell,
            levels: LevelTable::new(cfg.r()),
            level_capacity: cfg.level_capacity() as u64,
            level_sets_enabled: cfg.level_sets_enabled,
            threshold: 0.0,
            saturated: LevelBits::new(),
            early_sent: std::collections::HashMap::new(),
            sent_keys: TopK::new(cfg.sample_size),
            rng: Rng::new(seed),
        }
    }

    /// The duplication factor `ℓ` in force.
    pub fn duplication(&self) -> u64 {
        self.ell
    }

    /// The effective filtering threshold: max of the epoch broadcast and
    /// the site's own sent-key statistic.
    fn effective_threshold(&self) -> f64 {
        self.threshold.max(self.sent_keys.u())
    }
}

impl SiteNode for L1Site {
    type Up = UpMsg;
    type Down = DownMsg;

    fn observe(&mut self, item: Item, out: &mut Vec<UpMsg>) {
        let w = item.weight;
        let level = self.levels.level(w);
        let mut remaining = self.ell;
        // Early phase: real early messages, one per duplicate, until the
        // level is (locally known to be) saturated.
        if self.level_sets_enabled && !self.saturated.get(level) {
            let sent = self.early_sent.entry(level).or_insert(0);
            let burst = remaining.min(self.level_capacity.saturating_sub(*sent));
            for _ in 0..burst {
                out.push(UpMsg::Early { item });
            }
            *sent += burst;
            remaining -= burst;
            if *sent >= self.level_capacity {
                // Self-inferred saturation: the coordinator has counted at
                // least this site's earlies, so the level is saturated
                // even if the broadcast is still in flight.
                self.saturated.set(level);
            }
            if remaining == 0 {
                return;
            }
        }
        // Regular phase: geometric skips between threshold-clearing keys.
        loop {
            let threshold = self.effective_threshold();
            let Some(gap) = first_copy_above(&mut self.rng, w, threshold, remaining) else {
                return;
            };
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

#[cfg(test)]
mod tests {
    use super::*;
    use dwrs_core::swor::SworCoordinator;

    fn run_deployment(
        s: usize,
        k: usize,
        ell: u64,
        items: &[Item],
        seed: u64,
    ) -> (SworCoordinator, u64, u64) {
        let cfg = SworConfig::new(s, k);
        let mut sites: Vec<L1Site> = (0..k)
            .map(|i| L1Site::new(&cfg, ell, seed ^ (0x51 + i as u64)))
            .collect();
        let mut coord = SworCoordinator::new(cfg, seed ^ 0xC0);
        let (mut ups, mut downs) = (Vec::new(), Vec::new());
        let (mut early, mut regular) = (0u64, 0u64);
        for (t, item) in items.iter().enumerate() {
            let site = t % k;
            sites[site].observe(*item, &mut ups);
            for up in ups.drain(..) {
                match up {
                    UpMsg::Early { .. } => early += 1,
                    UpMsg::Regular { .. } => regular += 1,
                }
                coord.receive(up, &mut downs);
                // Instant broadcast delivery for this unit test.
                for d in downs.drain(..) {
                    for s in sites.iter_mut() {
                        SiteNode::receive(s, &d);
                    }
                }
            }
        }
        (coord, early, regular)
    }

    #[test]
    fn estimate_tracks_total_weight() {
        let (s, k, ell) = (64usize, 4usize, 160u64);
        let items: Vec<Item> = (0..2_000u64)
            .map(|i| Item::new(i, 1.0 + (i % 9) as f64))
            .collect();
        let true_w: f64 = items.iter().map(|i| i.weight).sum();
        let (coord, _, _) = run_deployment(s, k, ell, &items, 5);
        // W̃ = s·u/ℓ (Algorithm 1's output step).
        let est = s as f64 * coord.u() / ell as f64;
        let rel = (est - true_w).abs() / true_w;
        assert!(rel < 0.5, "estimate {est} vs true {true_w} (rel {rel})");
    }

    #[test]
    fn early_phase_is_capped_per_level() {
        // Unit weights: one level. Early messages across the deployment
        // stay at most k × capacity even though ℓ × n is much larger.
        let (s, k, ell) = (8usize, 3usize, 500u64);
        let cfg = SworConfig::new(s, k);
        let cap = cfg.level_capacity() as u64;
        let items: Vec<Item> = (0..300u64).map(Item::unit).collect();
        let (_, early, _) = run_deployment(s, k, ell, &items, 9);
        assert!(early >= cap, "level never saturated: {early} earlies");
        assert!(
            early <= k as u64 * cap,
            "early burst {early} exceeds k×capacity {}",
            k as u64 * cap
        );
    }

    #[test]
    fn messages_are_sublinear_in_duplicated_stream() {
        let (s, k, ell) = (32usize, 2usize, 128u64);
        let items: Vec<Item> = (0..4_000u64).map(Item::unit).collect();
        let (_, early, regular) = run_deployment(s, k, ell, &items, 3);
        let dup_stream = ell * items.len() as u64;
        assert!(
            early + regular < dup_stream / 10,
            "messages {} not sublinear in ℓ·n = {dup_stream}",
            early + regular
        );
    }

    #[test]
    fn self_threshold_bounds_burst_without_broadcasts() {
        // Adversarial regime: no broadcast ever arrives (delayed forever).
        // The self-threshold must still keep regular traffic far below
        // ℓ per item.
        let cfg = SworConfig::new(16, 2);
        let ell = 200u64;
        let mut site = L1Site::new(&cfg, ell, 11);
        // Saturate level 0 locally via the early cap.
        let mut out = Vec::new();
        let mut total_regular = 0u64;
        let n = 2_000u64;
        for i in 0..n {
            out.clear();
            site.observe(Item::unit(i), &mut out);
            total_regular += out
                .iter()
                .filter(|m| matches!(m, UpMsg::Regular { .. }))
                .count() as u64;
        }
        assert!(
            total_regular < n * ell / 20,
            "self-threshold failed: {total_regular} regulars for {} duplicates",
            n * ell
        );
    }
}
