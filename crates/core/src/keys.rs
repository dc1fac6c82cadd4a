//! Precision-sampling keys (paper Section 3, Proposition 1).
//!
//! Every item `(e, w)` is assigned a key `v = w/t` with `t ~ Exp(1)` drawn
//! independently. The items holding the `s` largest keys form a weighted
//! sample **without replacement** of the stream — this is the Nagaraja /
//! Andoni–Krauthgamer–Onak precision-sampling identity the whole paper rests
//! on.
//!
//! Useful facts implemented here:
//!
//! * `1/v` is exponential with rate `w`, so
//!   `P(v > θ) = P(t < w/θ) = 1 - e^{-w/θ}`;
//! * conditioned on `v > θ`, `t` is a truncated exponential on `(0, w/θ)`,
//!   which we can sample by inversion — this powers the *batched*
//!   duplication used by the L1 tracker without changing any distribution;
//! * `t = −ln u ≥ 1 − u`, so a uniform draw `u` far enough below 1 already
//!   decides "key at most θ" without the `ln` (`no_key_above`) — the
//!   exact pre-check behind the sites' per-item fast path.

use crate::item::{Item, Keyed};
use crate::math::{geometric_from_draw, geometric_trials};
use crate::rng::Rng;

/// Relative margin of the pre-check (`past_cutoff`): it covers the
/// few-ulp errors of `ln`, `exp_m1`/`ln_1p`, the divisions and `1 − u`
/// (exact for `u ≥ ½`) with six orders of magnitude to spare.
const PRECHECK_MARGIN: f64 = 1e-9;

/// Draws the key `v = w/t`, `t ~ Exp(1)`, for weight `weight`.
#[inline]
pub fn key_for(weight: f64, rng: &mut Rng) -> f64 {
    debug_assert!(weight > 0.0);
    key_from_draw(weight, rng.open01())
}

/// The key `w/t` with `t = −ln u` for a given draw `u ∈ (0, 1)`:
/// [`key_for`] applies it to one [`Rng::open01`]. `t` is strictly
/// positive, so the key is finite.
#[inline]
pub(crate) fn key_from_draw(weight: f64, u: f64) -> f64 {
    weight / -u.ln()
}

/// Exact pre-check for one key (`SworSite::observe`): `true` only if the
/// key `key_from_draw(weight, u)` is at or below `threshold`, decided
/// without the `ln`. [`first_copy_above`] runs the same check for several
/// copies.
#[inline]
pub(crate) fn no_key_above(u: f64, weight: f64, threshold: f64) -> bool {
    precheck_exposure(weight, threshold, 1).is_some_and(|y| past_cutoff(u, y))
}

/// The exposure `y = copies·w/θ` where the pre-check may decide, else
/// `None` (compute the exact formula).
///
/// With one draw `u` deciding every copy, no key clears `θ` iff
/// `u ≤ e^{−y}`, and `e^{−y} ≥ 1 − y`; so `1 − u ≥ y(1 + δ)` decides it
/// (`past_cutoff`), the margin `δ` absorbing every rounding on both
/// sides. The check declines where that argument or the single draw does
/// not hold: `θ ≤ 0` (no epoch yet: every key clears), `w/θ` not a normal
/// number (`p = 0` draws nothing; subnormals lose relative precision), and
/// `w/θ ≥ ½` or `y ≥ ½`, which keeps `p < 1` — `geometric_trials` draws
/// nothing at `p = 1`, and `copies` may be 0.
#[inline]
fn precheck_exposure(weight: f64, threshold: f64, copies: u64) -> Option<f64> {
    if threshold <= 0.0 {
        return None;
    }
    let exposure = weight / threshold;
    let total = copies as f64 * exposure;
    (exposure.is_normal() && exposure < 0.5 && total < 0.5).then_some(total)
}

#[inline]
fn past_cutoff(u: f64, exposure: f64) -> bool {
    1.0 - u >= exposure * (1.0 + PRECHECK_MARGIN)
}

/// Of `copies` duplicates of an item, each keyed independently, the
/// 1-based position of the first whose key exceeds `threshold`, or `None`
/// when none does — the geometric gap with success probability
/// [`p_key_above`], drawn as [`geometric_trials`] draws it.
///
/// Where the gap costs one `open01`, the draw goes through the pre-check
/// first: an item that cannot clear the threshold ends without `exp_m1` or
/// `ln`. Otherwise the gap comes from that same draw, so the RNG stream
/// and every gap are bit-identical to `geometric_trials`.
#[inline]
pub fn first_copy_above(rng: &mut Rng, weight: f64, threshold: f64, copies: u64) -> Option<u64> {
    let gap = match precheck_exposure(weight, threshold, copies) {
        Some(exposure) => {
            let u = rng.open01();
            if past_cutoff(u, exposure) {
                debug_assert!(geometric_from_draw(u, p_key_above(weight, threshold)) > copies);
                return None;
            }
            geometric_from_draw(u, p_key_above(weight, threshold))
        }
        None => geometric_trials(rng, p_key_above(weight, threshold)),
    };
    (gap <= copies).then_some(gap)
}

/// Attaches a fresh key to an item.
#[inline]
pub fn assign_key(item: Item, rng: &mut Rng) -> Keyed {
    Keyed::new(item, key_for(item.weight, rng))
}

/// Probability that a fresh key for `weight` exceeds `threshold`:
/// `P(w/t > θ) = 1 - e^{-w/θ}`. For `threshold <= 0` this is 1.
#[inline]
pub fn p_key_above(weight: f64, threshold: f64) -> f64 {
    debug_assert!(weight > 0.0);
    if threshold <= 0.0 {
        return 1.0;
    }
    -(-weight / threshold).exp_m1()
}

/// Draws a key for `weight` **conditioned on exceeding `threshold`**.
///
/// Inversion on the truncated exponential: with `p = 1 - e^{-w/θ}` and
/// `U ~ Uniform(0,1)`, `t = -ln(1 - U·p)` is Exp(1) conditioned on
/// `t < w/θ`, hence `w/t > θ`. Falls back to an unconditioned draw when
/// `threshold <= 0`.
pub fn key_above(weight: f64, threshold: f64, rng: &mut Rng) -> f64 {
    debug_assert!(weight > 0.0);
    if threshold <= 0.0 {
        return key_for(weight, rng);
    }
    let p = p_key_above(weight, threshold);
    let u = rng.open01();
    // 1 - U*p in (1-p, 1); ln is negative, t in (0, w/θ).
    let t = -(-u * p).ln_1p();
    let t = t.max(f64::MIN_POSITIVE);
    let v = weight / t;
    // Numeric guard: inversion can land exactly on the boundary after
    // rounding; nudge into the valid region so callers' invariants hold.
    if v > threshold {
        v
    } else {
        threshold * (1.0 + 1e-15) + f64::MIN_POSITIVE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::math::powi;

    /// Reference: the site filter before the pre-check existed. Does the
    /// key drawn from `u` clear `theta`?
    fn swor_sends(u: f64, w: f64, theta: f64) -> bool {
        w / -u.ln() > theta
    }

    /// Reference: the L1 regular phase before the pre-check existed. Does
    /// the gap drawn from `u` land within `copies`? `None` where it would
    /// not have drawn at all (`p ≤ 0` or `p ≥ 1`).
    fn l1_sends(u: f64, w: f64, theta: f64, copies: u64) -> Option<bool> {
        let p = if theta <= 0.0 {
            1.0
        } else {
            -(-w / theta).exp_m1()
        };
        if p <= 0.0 || p >= 1.0 {
            return None;
        }
        let g = (u.ln() / (-p).ln_1p()).floor();
        let gap = if g >= u64::MAX as f64 {
            u64::MAX
        } else {
            g as u64 + 1
        };
        Some(gap <= copies)
    }

    /// Fails if the pre-check says "filtered" where a reference sends (or
    /// where the L1 phase would not have drawn). Returns whether it fired.
    fn check_precheck(u: f64, w: f64, theta: f64, copies: u64) -> bool {
        // What `first_copy_above` runs; `no_key_above` for one copy.
        let fires = precheck_exposure(w, theta, copies).is_some_and(|y| past_cutoff(u, y));
        if copies == 1 {
            assert_eq!(fires, no_key_above(u, w, theta));
        }
        if !fires {
            return false;
        }
        let at = format!("u = {u:e}, w = {w:e}, θ = {theta:e}, copies = {copies}");
        if copies == 1 {
            assert!(!swor_sends(u, w, theta), "SWOR key clears: {at}");
        }
        match l1_sends(u, w, theta, copies) {
            None => panic!("fired where no draw is made: {at}"),
            Some(sends) => assert!(!sends, "L1 gap within copies: {at}"),
        }
        true
    }

    /// Draws within `ulps` of `u`, kept inside `(0, 1)`.
    fn around(u: f64, ulps: usize) -> Vec<f64> {
        let (mut lo, mut hi) = (u, u);
        let mut out = vec![u];
        for _ in 0..ulps {
            lo = lo.next_down();
            hi = hi.next_up();
            out.extend([lo, hi]);
        }
        out.retain(|&x| x > 0.0 && x < 1.0);
        out
    }

    #[test]
    fn precheck_never_filters_a_sending_draw_near_its_cutoff() {
        let weights = [1e-300, 1e-3, 1.0, 3.7, 1e3, 1e300];
        let thetas = [-1.0, 0.0, 1e-300, 1e-6, 1.0, 64.0, 1e15, 1e300];
        let copies = [0u64, 1, 2, 7, 1_000, 1_000_000];
        let mut fired = 0u64;
        for &w in &weights {
            for &theta in &thetas {
                for &c in &copies {
                    let y = c as f64 * (w / theta);
                    let mut draws = vec![0.5, 0.999, 1e-9];
                    if y.is_finite() && y > 0.0 && y < 1.0 {
                        for rel in [-1e-12, -1e-13, 0.0, 1e-13, 1e-12] {
                            // Around 1 − u = y (the exact boundary) and
                            // around the pre-check's own cutoff.
                            draws.extend(around(1.0 - y * (1.0 + rel), 16));
                            let cutoff = y * (1.0 + PRECHECK_MARGIN);
                            draws.extend(around(1.0 - cutoff * (1.0 + rel), 16));
                        }
                    }
                    for u in draws {
                        fired += u64::from(check_precheck(u, w, theta, c));
                    }
                }
            }
        }
        assert!(
            fired > 1_000,
            "the grid barely exercises the pre-check: {fired}"
        );
    }

    #[test]
    fn precheck_holds_where_minus_ln_u_meets_one_minus_u() {
        // Near u = 1, −ln u exceeds 1 − u by less than an ulp: the margin
        // alone keeps the pre-check exact there. Exposures within a few ulps
        // of 1 − u, for many threshold mantissas.
        let mut rng = Rng::new(17);
        let mut fired = 0u64;
        for _ in 0..2_000 {
            let theta = (1.0 + rng.f64()) * powi(2.0, rng.range(80) as i64 - 40);
            for m in 1..=6u32 {
                let d = f64::from(m) * f64::EPSILON / 2.0;
                for c in [1u64, 2, 3] {
                    let mut w = d * theta / c as f64;
                    for _ in 0..6 {
                        w = w.next_down();
                    }
                    for _ in 0..12 {
                        for u in around(1.0 - d, 2) {
                            fired += u64::from(check_precheck(u, w, theta, c));
                        }
                        w = w.next_up();
                    }
                }
            }
        }
        assert!(fired > 10_000, "too few fires near u = 1: {fired}");
    }

    #[test]
    fn precheck_never_fires_without_an_epoch() {
        for theta in [0.0, -0.0, -1.0, -1e300, f64::NAN] {
            for u in [1e-300, 1e-9, 0.5, 1.0 - f64::EPSILON] {
                assert!(!no_key_above(u, 1.0, theta), "θ = {theta}, u = {u}");
            }
        }
    }

    #[test]
    fn first_copy_above_consumes_the_draws_geometric_trials_does() {
        // Same gaps and the same RNG position afterwards, in and out of
        // the pre-check's regime.
        for (w, theta, copies) in [
            (1.0, 0.0, 5u64),
            (1.0, 1e-6, 5),
            (1.0, 4.0, 3),
            (2.0, 1e6, 1_000),
            (1e-300, 1e10, 7),
            (1.0, 1e300, 1),
            (3.0, 10.0, 0),
            // Every copy already placed: p rounds to 1 at w/θ = 1000, so
            // no draw; at w/θ = 1 one draw, gap ≥ 1 > 0.
            (1.0, 1e-3, 0),
            (1.0, 1.0, 0),
        ] {
            let (mut a, mut b) = (Rng::new(9), Rng::new(9));
            for _ in 0..20_000 {
                let gap = geometric_trials(&mut b, p_key_above(w, theta));
                let expect = (gap <= copies).then_some(gap);
                assert_eq!(first_copy_above(&mut a, w, theta, copies), expect);
            }
            assert_eq!(
                a.state(),
                b.state(),
                "w = {w}, θ = {theta}, copies = {copies}"
            );
        }
    }

    #[test]
    fn key_is_positive_finite() {
        let mut rng = Rng::new(1);
        for _ in 0..10_000 {
            let v = key_for(3.5, &mut rng);
            assert!(v > 0.0 && v.is_finite());
        }
    }

    #[test]
    fn p_key_above_matches_empirical() {
        let mut rng = Rng::new(2);
        let (w, theta) = (2.0, 5.0);
        let p = p_key_above(w, theta);
        let n = 400_000;
        let hits = (0..n).filter(|_| key_for(w, &mut rng) > theta).count() as f64;
        let emp = hits / n as f64;
        let se = (p * (1.0 - p) / n as f64).sqrt();
        assert!((emp - p).abs() < 6.0 * se, "emp {emp} vs p {p}");
    }

    #[test]
    fn p_key_above_zero_threshold_is_one() {
        assert_eq!(p_key_above(1.0, 0.0), 1.0);
        assert_eq!(p_key_above(1.0, -3.0), 1.0);
    }

    #[test]
    fn conditional_key_exceeds_threshold() {
        let mut rng = Rng::new(3);
        for _ in 0..50_000 {
            let v = key_above(1.5, 10.0, &mut rng);
            assert!(v > 10.0, "conditional key {v} <= threshold");
        }
    }

    #[test]
    fn conditional_key_matches_rejection_sampling() {
        // KS-style comparison between inversion and naive rejection on the
        // conditional distribution of the key above a threshold.
        let (w, theta) = (2.0, 3.0);
        let n = 40_000usize;
        let mut rng = Rng::new(4);
        let mut inv: Vec<f64> = (0..n).map(|_| key_above(w, theta, &mut rng)).collect();
        let mut rej = Vec::with_capacity(n);
        while rej.len() < n {
            let v = key_for(w, &mut rng);
            if v > theta {
                rej.push(v);
            }
        }
        inv.sort_by(f64::total_cmp);
        rej.sort_by(f64::total_cmp);
        // Two-sample KS statistic.
        let (mut i, mut j) = (0usize, 0usize);
        let mut d: f64 = 0.0;
        while i < n && j < n {
            if inv[i] <= rej[j] {
                i += 1;
            } else {
                j += 1;
            }
            d = d.max(((i as f64 - j as f64) / n as f64).abs());
        }
        // Critical value at alpha=0.001 for two-sample KS: ~1.95*sqrt(2/n).
        let crit = 1.95 * (2.0 / n as f64).sqrt();
        assert!(d < crit, "KS statistic {d} >= {crit}");
    }

    #[test]
    fn mean_of_inverse_key_is_one_over_weight() {
        // 1/v = t/w is Exp(rate w), mean 1/w.
        let mut rng = Rng::new(5);
        let w = 4.0;
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| 1.0 / key_for(w, &mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 1.0 / w).abs() < 0.003, "mean {mean}");
    }
}
