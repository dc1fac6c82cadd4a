//! Configuration shared by sites and coordinator.

/// Parameters of the weighted SWOR protocol.
///
/// The two required parameters are the sample size `s` and the number of
/// sites `k`; everything else defaults to the paper's constants and exists
/// for the ablation experiments.
///
/// ```
/// use dwrs_core::swor::SworConfig;
///
/// // A size-64 continuous weighted sample over 8 sites.
/// let cfg = SworConfig::new(64, 8);
/// assert_eq!(cfg.sample_size, 64);
/// assert_eq!(cfg.num_sites, 8);
/// // The paper's geometric base r = max(2, k/s) and 4rs level capacity:
/// assert_eq!(cfg.r(), 2.0);
/// assert_eq!(cfg.level_capacity(), 512);
/// ```
#[derive(Clone, Debug)]
pub struct SworConfig {
    /// Desired sample size `s`.
    pub sample_size: usize,
    /// Number of sites `k`.
    pub num_sites: usize,
    /// Level-set capacity multiplier: a level saturates after
    /// `ceil(factor · r · s)` items. The paper uses 4 (Definition of `D_j`);
    /// exposed for the ablation experiments.
    pub level_capacity_factor: f64,
    /// Overrides the epoch/level base `r`; `None` selects the paper's
    /// `r = max(2, k/s)`. Exposed for the `r`-sweep ablation (E16).
    pub r_override: Option<f64>,
    /// Disables level sets entirely (plain precision sampling) — the
    /// ablation of the paper's key idea (E15). The protocol stays correct,
    /// only its message complexity degrades on heavy-tailed streams.
    pub level_sets_enabled: bool,
}

impl SworConfig {
    /// Standard configuration for sample size `s` over `k` sites.
    pub fn new(sample_size: usize, num_sites: usize) -> Self {
        assert!(sample_size >= 1, "sample size must be >= 1");
        assert!(num_sites >= 1, "need at least one site");
        Self {
            sample_size,
            num_sites,
            level_capacity_factor: 4.0,
            r_override: None,
            level_sets_enabled: true,
        }
    }

    /// The geometric base `r = max(2, k/s)` (or the override).
    pub fn r(&self) -> f64 {
        match self.r_override {
            Some(r) => {
                assert!(r > 1.0, "r must exceed 1");
                r
            }
            None => (self.num_sites as f64 / self.sample_size as f64).max(2.0),
        }
    }

    /// Level-set capacity: number of items after which a level saturates
    /// (`4rs` in the paper).
    pub fn level_capacity(&self) -> usize {
        let cap = (self.level_capacity_factor * self.r() * self.sample_size as f64).ceil();
        (cap as usize).max(1)
    }

    /// Builder-style: override `r`.
    pub fn with_r(mut self, r: f64) -> Self {
        self.r_override = Some(r);
        self
    }

    /// Builder-style: set the level capacity factor.
    pub fn with_level_capacity_factor(mut self, f: f64) -> Self {
        assert!(f > 0.0);
        self.level_capacity_factor = f;
        self
    }

    /// Builder-style: toggle level sets (ablation).
    pub fn with_level_sets(mut self, enabled: bool) -> Self {
        self.level_sets_enabled = enabled;
        self
    }
}

/// Theorem 3's message bound `k·ln(W/s)/ln(1+k/s)` for `k` sites, sample
/// size `s` and total weight `W` (natural logs; the constant in front is
/// what experiments and tests estimate). `W/s` is floored at `e`, so the
/// bound stays positive on tiny streams.
pub fn swor_bound(k: usize, s: usize, total_weight: f64) -> f64 {
    let k = k as f64;
    let s = s as f64;
    let ratio = (total_weight / s).max(std::f64::consts::E);
    k * ratio.ln() / (1.0 + k / s).ln().max(f64::MIN_POSITIVE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn swor_bound_grows_with_weight_and_floors_tiny_streams() {
        assert!(swor_bound(16, 16, 1e6) > swor_bound(16, 16, 1e3));
        // Tiny streams floor W/s at e: the bound is k / ln(1 + k/s).
        let tiny = swor_bound(16, 16, 1.0);
        assert!((tiny - 16.0 / 2f64.ln()).abs() < 1e-9, "{tiny}");
    }

    #[test]
    fn r_is_two_when_k_small() {
        let cfg = SworConfig::new(10, 5);
        assert_eq!(cfg.r(), 2.0);
    }

    #[test]
    fn r_is_k_over_s_when_large() {
        let cfg = SworConfig::new(10, 100);
        assert_eq!(cfg.r(), 10.0);
    }

    #[test]
    fn level_capacity_matches_4rs() {
        let cfg = SworConfig::new(10, 5); // r = 2
        assert_eq!(cfg.level_capacity(), 80);
        let cfg = SworConfig::new(4, 32); // r = 8
        assert_eq!(cfg.level_capacity(), 128);
    }

    #[test]
    fn overrides_apply() {
        let cfg = SworConfig::new(8, 8)
            .with_r(3.0)
            .with_level_capacity_factor(2.0);
        assert_eq!(cfg.r(), 3.0);
        assert_eq!(cfg.level_capacity(), 48);
    }

    #[test]
    #[should_panic(expected = "sample size")]
    fn zero_sample_size_rejected() {
        let _ = SworConfig::new(0, 4);
    }
}
