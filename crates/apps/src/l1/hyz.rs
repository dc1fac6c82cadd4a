//! Randomized L1 tracker in the style of Huang, Yi and Zhang \[23\] — the
//! best prior upper bound, `O((k + √k/ε)·log W)` expected messages, and the
//! second comparison row of the paper's Section 5 table.
//!
//! Reconstruction from the stated guarantees (the paper of \[23\] is not
//! reproduced here): the protocol proceeds in *rounds*, each spanning
//! roughly a doubling of the total weight.
//!
//! * At a round start the coordinator learns the exact total `B` (one
//!   broadcast + one reply per site + one broadcast of the new signal rate:
//!   `3k` messages).
//! * During the round, each site emits an unbiased Bernoulli/Binomial
//!   *signal* per unit of arriving weight with rate `p = c·max(√k, 1/ε)/(ε·B)`;
//!   the coordinator's running estimate is `W̃ = B + (#signals)/p`, whose
//!   standard deviation stays below `ε·B/c'` throughout the round.
//! * When `W̃ ≥ 2B` the coordinator starts the next round.
//!
//! Expected signals per round: `p·B = c·max(√k, 1/ε)/ε`, and there are
//! `log₂ W` rounds — matching the `O((k + √k/ε)·log W)` bound (the `1/ε²`
//! variant of the rate keeps the estimate within `ε` even when `k < 1/ε²`,
//! which is the regime \[23\] is optimal in).

use dwrs_core::math::binomial::binomial;
use dwrs_core::rng::{mix, Rng};
use dwrs_core::Item;

use super::L1Estimator;

/// Signal-rate safety constant (variance margin).
const RATE_CONST: f64 = 4.0;

/// HYZ12-style randomized L1 tracker.
#[derive(Debug)]
pub struct HyzTracker {
    eps: f64,
    k: usize,
    /// Exact local totals (known to each site).
    local: Vec<f64>,
    /// Round base: exact total weight at round start.
    base: f64,
    /// Current signal rate per unit weight.
    rate: f64,
    /// Signals received this round.
    signals: u64,
    /// Per-site fractional-weight carry for signal generation.
    carry: Vec<f64>,
    rng: Rng,
    messages: u64,
    started: bool,
}

impl HyzTracker {
    /// Creates a tracker with accuracy `ε` over `k` sites.
    pub fn new(eps: f64, k: usize, seed: u64) -> Self {
        assert!(eps > 0.0 && eps < 1.0);
        assert!(k >= 1);
        Self {
            eps,
            k,
            local: vec![0.0; k],
            base: 0.0,
            rate: 0.0,
            signals: 0,
            carry: vec![0.0; k],
            rng: Rng::new(mix(seed, 0x485A)),
            messages: 0,
            started: false,
        }
    }

    /// Exact synchronization: coordinator polls all sites (`3k` messages)
    /// and restarts the round.
    fn sync(&mut self) {
        self.messages += 3 * self.k as u64;
        self.base = self.local.iter().sum();
        self.signals = 0;
        let scale = (self.k as f64).sqrt().max(1.0 / self.eps);
        self.rate = if self.base > 0.0 {
            (RATE_CONST * scale / (self.eps * self.base)).min(1.0)
        } else {
            1.0
        };
        self.started = true;
    }

    fn running_estimate(&self) -> f64 {
        if self.rate > 0.0 {
            self.base + self.signals as f64 / self.rate
        } else {
            self.base
        }
    }
}

impl L1Estimator for HyzTracker {
    fn observe(&mut self, site: usize, item: Item) {
        if !self.started {
            // The very first item triggers the initial synchronization
            // (site must speak: it cannot know it is not alone).
            self.local[site] += item.weight;
            self.messages += 1;
            self.sync();
            return;
        }
        self.local[site] += item.weight;
        // Unbiased signals: one Bernoulli(rate) per unit of weight, the
        // fractional remainder carried per site.
        let amount = item.weight + self.carry[site];
        let units = amount.floor();
        self.carry[site] = amount - units;
        let mut emitted = 0u64;
        if units > 0.0 && self.rate > 0.0 {
            emitted = binomial(&mut self.rng, units as u64, self.rate);
        }
        if emitted > 0 {
            self.messages += emitted;
            self.signals += emitted;
        }
        if self.running_estimate() >= 2.0 * self.base {
            self.sync();
        }
    }

    fn estimate(&self) -> Option<f64> {
        if self.started {
            Some(self.running_estimate())
        } else {
            None
        }
    }

    fn messages(&self) -> u64 {
        self.messages
    }

    fn name(&self) -> &'static str {
        "HYZ12-style randomized"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::l1::run_tracker;

    fn unit_stream(n: u64, k: usize) -> Vec<(usize, Item)> {
        (0..n)
            .map(|i| ((i % k as u64) as usize, Item::unit(i)))
            .collect()
    }

    #[test]
    fn estimate_stays_close() {
        let k = 64; // k ≥ 1/ε² regime with ε = 0.2
        let stream = unit_stream(100_000, k);
        let mut t = HyzTracker::new(0.2, k, 1);
        let (err, _) = run_tracker(&mut t, &stream, 500);
        assert!(err < 0.25, "max relative error {err}");
    }

    #[test]
    fn messages_sublinear() {
        let k = 16;
        let n = 200_000u64;
        let stream = unit_stream(n, k);
        let mut t = HyzTracker::new(0.1, k, 2);
        let (_, msgs) = run_tracker(&mut t, &stream, 10_000);
        assert!(msgs < n / 10, "messages {msgs} vs n {n}");
    }

    #[test]
    fn sqrt_k_scaling_visible() {
        // At fixed ε in the k ≥ 1/ε² regime, messages/log W should grow
        // roughly like k (sync term) + √k/ε; doubling k by 16 must increase
        // messages by far less than 16x when the √k term dominates.
        let n = 100_000u64;
        let eps = 0.05;
        let run = |k: usize, seed: u64| {
            let stream = unit_stream(n, k);
            let mut t = HyzTracker::new(eps, k, seed);
            let (_, msgs) = run_tracker(&mut t, &stream, n as usize);
            msgs as f64
        };
        let m1 = run(4, 3);
        let m2 = run(64, 4);
        assert!(
            m2 / m1 < 8.0,
            "16x sites increased messages {m1} -> {m2} (ratio {})",
            m2 / m1
        );
    }

    #[test]
    fn estimate_none_before_any_item() {
        let t = HyzTracker::new(0.1, 4, 5);
        assert!(t.estimate().is_none());
    }
}
