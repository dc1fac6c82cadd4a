//! Shared experiment helpers.

use dwrs_core::swor::{SworConfig, SworCoordinator, SworSite};
use dwrs_core::Item;
use dwrs_sim::{assign_sites, build_swor, Partition, Runner};

/// Runs the weighted SWOR protocol over `items` partitioned by `partition`;
/// returns the finished runner (metrics + coordinator).
pub fn run_swor(
    cfg: SworConfig,
    items: &[Item],
    partition: Partition,
    seed: u64,
) -> Runner<SworSite, SworCoordinator> {
    let k = cfg.num_sites;
    let mut runner = build_swor(cfg, seed);
    let sites = assign_sites(partition, k, items.len(), seed ^ 0x9E37);
    runner.run(sites.into_iter().zip(items.iter().copied()));
    runner
}

/// Corollary 1's bound `(k + s·ln s)·ln(W)/ln(2+k/s)`.
pub fn swr_bound(k: usize, s: usize, total_weight: f64) -> f64 {
    let kf = k as f64;
    let sf = s as f64;
    (kf + sf * sf.ln().max(1.0)) * total_weight.max(std::f64::consts::E).ln() / (2.0 + kf / sf).ln()
}

/// Theorem 4's bound `(k/ln k + ln(1/(εδ))/ε)·ln(εW)`.
pub fn rhh_bound(k: usize, eps: f64, delta: f64, total_weight: f64) -> f64 {
    let kf = k as f64;
    let log_ew = (eps * total_weight).max(std::f64::consts::E).ln();
    (kf / kf.ln().max(1.0) + (1.0 / (eps * delta)).ln() / eps) * log_ew
}

/// Theorem 6's bound `(k/ln k + ln(1/δ)/ε²)·ln(εW)`.
pub fn l1_bound(k: usize, eps: f64, delta: f64, total_weight: f64) -> f64 {
    let kf = k as f64;
    let log_ew = (eps * total_weight).max(std::f64::consts::E).ln();
    (kf / kf.ln().max(1.0) + (1.0 / delta).ln() / (eps * eps)) * log_ew
}

/// Least-squares slope of `ln y` against `ln x` — the empirical scaling
/// exponent used to compare growth rates against the paper's formulas.
pub fn log_log_slope(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len());
    assert!(xs.len() >= 2);
    let lx: Vec<f64> = xs.iter().map(|x| x.ln()).collect();
    let ly: Vec<f64> = ys.iter().map(|y| y.ln()).collect();
    let mx = lx.iter().sum::<f64>() / lx.len() as f64;
    let my = ly.iter().sum::<f64>() / ly.len() as f64;
    let cov: f64 = lx.iter().zip(&ly).map(|(a, b)| (a - mx) * (b - my)).sum();
    let var: f64 = lx.iter().map(|a| (a - mx) * (a - mx)).sum();
    cov / var
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slope_recovers_power_law() {
        let xs = [1.0, 2.0, 4.0, 8.0];
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x * x).collect();
        let b = log_log_slope(&xs, &ys);
        assert!((b - 2.0).abs() < 1e-9);
    }

    #[test]
    fn bounds_positive_and_monotone_in_w() {
        assert!(swr_bound(16, 16, 1e6) > 0.0);
        assert!(rhh_bound(16, 0.1, 0.1, 1e6) > 0.0);
        assert!(l1_bound(16, 0.1, 0.1, 1e6) > 0.0);
    }

    #[test]
    fn run_swor_smoke() {
        let items = dwrs_workloads::uniform_weights(2000, 1.0, 2.0, 3);
        let r = run_swor(SworConfig::new(8, 4), &items, Partition::RoundRobin, 1);
        assert_eq!(r.coordinator.sample().len(), 8);
    }
}
