//! The paper's L1 tracker (Section 5, Algorithm 1, Theorem 6).
//!
//! Every update `(e, w)` is duplicated `ℓ = s/(2ε)` times and inserted into
//! a weighted SWOR instance `P` with `s = ⌈10·ln(1/δ)/ε²⌉`. After
//! duplication, no single inserted item exceeds an `ε/(2s)` fraction of the
//! duplicated stream, so (by Nagaraja's identity and the exponential tail
//! bound, Proposition 8) the s-th largest key `u` concentrates:
//! `u = (1±O(ε))·ℓ·W/s`, and the output is `W̃ = s·u/ℓ`.
//!
//! ### Batched-but-exact simulation
//!
//! Feeding `ℓ` literal duplicates per update would cost `O(ℓ)` per item, so
//! the site-side work is collapsed without changing any distribution or any
//! message count:
//!
//! * duplicates headed for an unsaturated level are sent one by one (they
//!   are real early messages) until the coordinator reports saturation —
//!   with instant delivery this is exactly `min(ℓ, remaining capacity)`;
//! * for the rest, only duplicates whose key clears the threshold cause a
//!   message; the gap between consecutive clearing duplicates is geometric
//!   with success probability `P(key > θ) = 1 - e^{-w/θ}`, and each
//!   clearing key is drawn from the exact conditional distribution
//!   ([`dwrs_core::keys::key_above`]). Epoch advances triggered by an
//!   accepted key take effect for the remaining duplicates, exactly as in
//!   the sequential protocol.
//!
//! The equivalence with the naive one-duplicate-at-a-time execution is
//! property-tested in this module.
//!
//! The tracker assumes instant broadcast delivery (the paper's synchronous
//! round model); this is what makes the geometric collapse exact.

use dwrs_core::keys::{first_copy_above, key_above};
use dwrs_core::rng::{mix, Rng};
use dwrs_core::swor::{DownMsg, LevelTable, SworConfig, SworCoordinator, UpMsg};
use dwrs_core::Item;

use super::L1Estimator;

/// Parameters of the duplication tracker.
#[derive(Clone, Debug)]
pub struct L1Config {
    /// Relative accuracy `ε`.
    pub eps: f64,
    /// Per-time failure probability `δ`.
    pub delta: f64,
    /// Number of sites `k`.
    pub num_sites: usize,
    /// Overrides the derived SWOR sample size `s` (experiments only).
    pub sample_size_override: Option<usize>,
    /// Overrides the duplication factor `ℓ` (experiments only).
    pub dup_override: Option<u64>,
}

impl L1Config {
    /// Standard configuration.
    pub fn new(eps: f64, delta: f64, num_sites: usize) -> Self {
        assert!(eps > 0.0 && eps < 0.5, "ε must be in (0, 0.5)");
        assert!(delta > 0.0 && delta < 1.0);
        assert!(num_sites >= 1);
        Self {
            eps,
            delta,
            num_sites,
            sample_size_override: None,
            dup_override: None,
        }
    }

    /// Sample size `s = ⌈10·ln(1/δ)/ε²⌉` (Proposition 8's constant).
    pub fn sample_size(&self) -> usize {
        if let Some(s) = self.sample_size_override {
            return s;
        }
        let s = 10.0 * (1.0 / self.delta).ln() / (self.eps * self.eps);
        (s.ceil() as usize).max(2)
    }

    /// Duplication factor `ℓ = ⌈s/(2ε)⌉`.
    pub fn duplication(&self) -> u64 {
        if let Some(l) = self.dup_override {
            return l;
        }
        ((self.sample_size() as f64 / (2.0 * self.eps)).ceil() as u64).max(1)
    }
}

/// Message counters of the duplication tracker (faithful wire counts).
#[derive(Clone, Copy, Debug, Default)]
pub struct L1Metrics {
    /// Early (withheld) duplicate messages.
    pub early: u64,
    /// Regular keyed duplicate messages.
    pub regular: u64,
    /// Broadcast events (each costs `k` downstream messages).
    pub broadcast_events: u64,
    /// Total downstream messages.
    pub down: u64,
}

impl L1Metrics {
    /// Total messages both directions.
    pub fn total(&self) -> u64 {
        self.early + self.regular + self.down
    }
}

/// The paper's duplication-based L1 tracker.
#[derive(Debug)]
pub struct L1DupTracker {
    cfg: L1Config,
    s: usize,
    ell: u64,
    levels: LevelTable,
    coord: SworCoordinator,
    /// Shared (instant-delivery) site view of the epoch threshold.
    threshold: f64,
    rng: Rng,
    downs: Vec<DownMsg>,
    /// Faithful message counters.
    pub metrics: L1Metrics,
}

impl L1DupTracker {
    /// Builds the tracker.
    pub fn new(cfg: L1Config, seed: u64) -> Self {
        let s = cfg.sample_size();
        let ell = cfg.duplication();
        let swor_cfg = SworConfig::new(s, cfg.num_sites);
        let levels = LevelTable::new(swor_cfg.r());
        Self {
            cfg,
            s,
            ell,
            levels,
            coord: SworCoordinator::new(swor_cfg, mix(seed, 0xC0)),
            threshold: 0.0,
            rng: Rng::new(mix(seed, 0x517E)),
            downs: Vec::new(),
            metrics: L1Metrics::default(),
        }
    }

    /// The duplication factor `ℓ` in force.
    pub fn duplication(&self) -> u64 {
        self.ell
    }

    /// The SWOR sample size `s` in force.
    pub fn sample_size(&self) -> usize {
        self.s
    }

    fn apply_downs(&mut self) {
        let k = self.cfg.num_sites as u64;
        for d in self.downs.drain(..) {
            self.metrics.broadcast_events += 1;
            self.metrics.down += k;
            if let DownMsg::UpdateEpoch { threshold } = d {
                if threshold > self.threshold {
                    self.threshold = threshold;
                }
            }
            // LevelSaturated is tracked by querying the coordinator (the
            // instant-delivery view is shared).
        }
    }

    /// Inserts the `ℓ` duplicates of one update, exactly.
    fn insert_duplicates(&mut self, item: Item) {
        let w = item.weight;
        let level = self.levels.level(w);
        let mut remaining = self.ell;
        // Early phase: real early messages, one at a time, until the level
        // saturates (or duplicates run out).
        while remaining > 0 && !self.coord.is_level_saturated(level) {
            self.coord.receive(UpMsg::Early { item }, &mut self.downs);
            self.metrics.early += 1;
            remaining -= 1;
            self.apply_downs();
        }
        // Regular phase: geometric skips between threshold-clearing keys.
        while remaining > 0 {
            let Some(gap) = first_copy_above(&mut self.rng, w, self.threshold, remaining) else {
                break;
            };
            remaining -= gap;
            let key = key_above(w, self.threshold, &mut self.rng);
            self.coord
                .receive(UpMsg::Regular { item, key }, &mut self.downs);
            self.metrics.regular += 1;
            self.apply_downs();
        }
    }

    /// The s-th largest key over the full query set (sample ∪ withheld).
    fn u_query(&self) -> Option<f64> {
        let q = self.coord.sample();
        if q.len() < self.s {
            return None;
        }
        q.last().map(|k| k.key)
    }
}

impl L1Estimator for L1DupTracker {
    fn observe(&mut self, _site: usize, item: Item) {
        // With instant broadcasts all sites share the same threshold and
        // saturation view, so the site index does not affect behaviour or
        // message counts.
        self.insert_duplicates(item);
    }

    fn estimate(&self) -> Option<f64> {
        // W̃ = s·u/ℓ (Algorithm 1's output step).
        self.u_query().map(|u| self.s as f64 * u / self.ell as f64)
    }

    fn messages(&self) -> u64 {
        self.metrics.total()
    }

    fn name(&self) -> &'static str {
        "this work (dup + weighted SWOR)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dwrs_core::swor::level_of;

    /// Reference implementation: literally insert every duplicate through a
    /// site-side exponential draw. Used to validate the batched collapse.
    struct NaiveDup {
        coord: SworCoordinator,
        threshold: f64,
        rng: Rng,
        early: u64,
        regular: u64,
        ell: u64,
        r: f64,
    }

    impl NaiveDup {
        fn new(s: usize, k: usize, ell: u64, seed: u64) -> Self {
            let cfg = SworConfig::new(s, k);
            let r = cfg.r();
            Self {
                coord: SworCoordinator::new(cfg, mix(seed, 0xC0)),
                threshold: 0.0,
                rng: Rng::new(mix(seed, 0xAB)),
                early: 0,
                regular: 0,
                ell,
                r,
            }
        }

        fn observe(&mut self, item: Item) {
            let mut downs = Vec::new();
            for _ in 0..self.ell {
                let level = level_of(item.weight, self.r);
                if !self.coord.is_level_saturated(level) {
                    self.coord.receive(UpMsg::Early { item }, &mut downs);
                    self.early += 1;
                } else {
                    let key = item.weight / self.rng.exp();
                    if key > self.threshold {
                        self.coord.receive(UpMsg::Regular { item, key }, &mut downs);
                        self.regular += 1;
                    }
                }
                for d in downs.drain(..) {
                    if let DownMsg::UpdateEpoch { threshold } = d {
                        self.threshold = self.threshold.max(threshold);
                    }
                }
            }
        }
    }

    #[test]
    fn batched_matches_naive_in_distribution() {
        // Same (s, k, ℓ), same stream; compare message counts and estimates
        // across independent seeds — means must agree within a few percent.
        let (s, k, ell) = (20usize, 2usize, 64u64);
        let items: Vec<Item> = (0..60u64)
            .map(|i| Item::new(i, 1.0 + (i % 7) as f64))
            .collect();
        let runs = 60u64;
        let (mut b_reg, mut n_reg) = (0.0f64, 0.0f64);
        let (mut b_u, mut n_u) = (0.0f64, 0.0f64);
        for t in 0..runs {
            let mut cfg = L1Config::new(0.2, 0.2, k);
            cfg.sample_size_override = Some(s);
            cfg.dup_override = Some(ell);
            let mut batched = L1DupTracker::new(cfg, 1000 + t);
            let mut naive = NaiveDup::new(s, k, ell, 5000 + t);
            for it in &items {
                batched.observe(0, *it);
                naive.observe(*it);
            }
            b_reg += batched.metrics.regular as f64;
            n_reg += naive.regular as f64;
            assert_eq!(
                batched.metrics.early, naive.early,
                "early counts are deterministic and must match exactly"
            );
            b_u += batched.u_query().unwrap();
            n_u += naive.coord.sample().last().unwrap().key;
        }
        let (b_reg, n_reg) = (b_reg / runs as f64, n_reg / runs as f64);
        let (b_u, n_u) = (b_u / runs as f64, n_u / runs as f64);
        assert!(
            (b_reg - n_reg).abs() < 0.15 * n_reg.max(10.0),
            "regular msg mean: batched {b_reg} vs naive {n_reg}"
        );
        assert!(
            (b_u - n_u).abs() < 0.1 * n_u,
            "u mean: batched {b_u} vs naive {n_u}"
        );
    }

    #[test]
    fn estimate_tracks_total_weight() {
        let cfg = L1Config::new(0.15, 0.2, 4);
        let mut t = L1DupTracker::new(cfg, 7);
        let mut rng = Rng::new(9);
        let mut true_w = 0.0;
        let mut worst: f64 = 0.0;
        for i in 0..400u64 {
            let w = 1.0 + rng.f64() * 4.0;
            true_w += w;
            t.observe((i % 4) as usize, Item::new(i, w));
            if i >= 20 {
                let est = t.estimate().expect("estimate available");
                worst = worst.max((est - true_w).abs() / true_w);
            }
        }
        assert!(worst < 0.3, "worst relative error {worst}");
    }

    #[test]
    fn config_formulas() {
        let cfg = L1Config::new(0.1, 0.05, 8);
        // s = ceil(10 ln(20) / 0.01) = ceil(2995.7..) = 2996
        assert_eq!(cfg.sample_size(), 2996);
        // ell = ceil(2996 / 0.2) = 14980
        assert_eq!(cfg.duplication(), 14980);
    }

    #[test]
    fn messages_grow_logarithmically() {
        let mut cfg = L1Config::new(0.2, 0.2, 4);
        cfg.sample_size_override = Some(50);
        cfg.dup_override = Some(200);
        let mut t = L1DupTracker::new(cfg, 11);
        let n1 = 500u64;
        for i in 0..n1 {
            t.observe((i % 4) as usize, Item::unit(i));
        }
        let m1 = t.messages();
        for i in n1..(n1 * 8) {
            t.observe((i % 4) as usize, Item::unit(i));
        }
        let m2 = t.messages();
        // 8x more items should cost far less than 8x more messages.
        assert!(
            (m2 - m1) < 2 * m1,
            "messages not logarithmic: {m1} then {m2}"
        );
    }
}
