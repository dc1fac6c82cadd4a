//! Numeric substrate: special functions and exact discrete samplers.
//!
//! Everything here is implemented from first principles (Lanczos, Lentz,
//! Hörmann) so the distributional guarantees of the sampling algorithms rest
//! on auditable code rather than opaque dependencies.

pub mod binomial;
pub mod special;

pub use binomial::binomial;
pub use special::{gamma_p, gamma_q, ln_gamma};

/// Number of Bernoulli(`p`) trials up to and including the first success
/// (support `1, 2, ...`); returns `u64::MAX` when `p <= 0` (no success ever).
///
/// Used to skip over filtered duplicates in the batched L1 tracker: the
/// gap between consecutive forwarded keys is exactly geometric.
pub fn geometric_trials(rng: &mut crate::rng::Rng, p: f64) -> u64 {
    if p <= 0.0 {
        return u64::MAX;
    }
    if p >= 1.0 {
        return 1;
    }
    geometric_from_draw(rng.open01(), p)
}

/// [`geometric_trials`]' inversion for a given uniform draw `u ∈ (0, 1)`
/// and `0 < p < 1`: `floor(ln u / ln(1 − p)) + 1`. Callers that must look
/// at the draw before paying for the `ln`s (`keys::first_copy_above`) use
/// this so the gap stays bit-identical to `geometric_trials`.
#[inline]
pub(crate) fn geometric_from_draw(u: f64, p: f64) -> u64 {
    let g = (u.ln() / (-p).ln_1p()).floor();
    if g >= u64::MAX as f64 {
        u64::MAX
    } else {
        g as u64 + 1
    }
}

/// Natural log of `n choose k` via `ln_gamma`.
pub fn ln_choose(n: u64, k: u64) -> f64 {
    if k > n {
        return f64::NEG_INFINITY;
    }
    ln_gamma(n as f64 + 1.0) - ln_gamma(k as f64 + 1.0) - ln_gamma((n - k) as f64 + 1.0)
}

/// `log_b(x)` computed with guard-rails: returns the largest integer `j`
/// with `b^j <= x` (for `b > 1`, `x > 0`), correcting the floating-point
/// `ln(x)/ln(b)` estimate by direct power comparison.
#[inline]
pub fn floor_log_base(b: f64, x: f64) -> i64 {
    debug_assert!(b > 1.0 && x > 0.0);
    let mut j = (x.ln() / b.ln()).floor() as i64;
    // Repair off-by-one from rounding: move until b^j <= x < b^(j+1).
    while powi(b, j) > x {
        j -= 1;
    }
    while powi(b, j + 1) <= x {
        j += 1;
    }
    j
}

/// `b^j` for possibly-negative integer exponents without going through
/// `f64::powf` (keeps the epoch arithmetic exactly reproducible).
#[inline]
pub fn powi(b: f64, j: i64) -> f64 {
    if j >= 0 {
        b.powi(j.min(i32::MAX as i64) as i32)
    } else {
        1.0 / b.powi((-j).min(i32::MAX as i64) as i32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometric_trials_mean_is_one_over_p() {
        let mut rng = crate::rng::Rng::new(3);
        for &p in &[0.5f64, 0.1, 0.01] {
            let n = 100_000;
            let mean: f64 = (0..n)
                .map(|_| geometric_trials(&mut rng, p) as f64)
                .sum::<f64>()
                / n as f64;
            let expect = 1.0 / p;
            assert!(
                (mean - expect).abs() < 0.05 * expect,
                "p={p}: mean {mean} vs {expect}"
            );
        }
    }

    #[test]
    fn geometric_trials_edge_cases() {
        let mut rng = crate::rng::Rng::new(4);
        assert_eq!(geometric_trials(&mut rng, 1.0), 1);
        assert_eq!(geometric_trials(&mut rng, 0.0), u64::MAX);
        assert_eq!(geometric_trials(&mut rng, -0.5), u64::MAX);
    }

    #[test]
    fn ln_choose_small_values() {
        // C(5,2) = 10
        assert!((ln_choose(5, 2) - 10f64.ln()).abs() < 1e-10);
        // C(10,0) = 1
        assert!(ln_choose(10, 0).abs() < 1e-12);
        assert_eq!(ln_choose(3, 5), f64::NEG_INFINITY);
    }

    #[test]
    fn floor_log_base_exact_powers() {
        for j in 0..40i64 {
            let x = 2f64.powi(j as i32);
            assert_eq!(floor_log_base(2.0, x), j, "x = 2^{j}");
            // Just below the power belongs to the previous bucket.
            if j > 0 {
                assert_eq!(floor_log_base(2.0, x * (1.0 - 1e-12)), j - 1);
            }
        }
    }

    #[test]
    fn floor_log_base_fractional_base() {
        let b = 3.7;
        for j in 0..20i64 {
            let x = powi(b, j) * 1.0001;
            assert_eq!(floor_log_base(b, x), j);
        }
    }

    #[test]
    fn powi_negative() {
        assert!((powi(2.0, -3) - 0.125).abs() < 1e-15);
        assert!((powi(10.0, 0) - 1.0).abs() < 1e-15);
    }
}
