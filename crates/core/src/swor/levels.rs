//! Weight levels and epoch arithmetic (paper Definition 4 and the epoch
//! machinery of Section 3).

use crate::math::{floor_log_base, powi};

/// Level of a weight: the integer `j ≥ 0` with `w ∈ [r^j, r^(j+1))`,
/// clamped to 0 for `w < r` (Definition 4 sets level 0 for `w ∈ [0, r)`).
///
/// Stateless reference; the per-item and per-message paths use the
/// equivalent [`LevelTable`].
#[inline]
pub fn level_of(weight: f64, r: f64) -> u32 {
    debug_assert!(weight > 0.0 && r > 1.0);
    if weight < r {
        0
    } else {
        floor_log_base(r, weight) as u32
    }
}

/// Exact table-driven [`level_of`] for one base `r`.
///
/// It keeps the level boundaries `bounds[j] = powi(r, j)` — the same
/// powers `floor_log_base` compares against, so the two agree by
/// construction. A positive float's bits, read as an integer and scaled by
/// `2^-52`, are its biased exponent `e + 1023` plus its binary fraction
/// `f`: the chord `e + f` of `log2 w = e + log2(1 + f)`, below it by at
/// most 0.0861. So `(e + f) / log2 r` never overshoots `log_r w`; the
/// lookup starts one level below it (absorbing the rounding of the
/// estimate and of `powi`) and climbs while `bounds[j + 1] <= w`. No `ln`,
/// no division. The start trails the level by at most
/// `ceil(0.0861 / log2 r) + 1`: two steps for every `r ≥ 2^0.0861 ≈ 1.062`
/// (every `r` the default config produces is at least 2), taken as two
/// branch-free steps and one predictable check. Bases closer to 1, which
/// only `SworConfig::r_override` reaches, take more steps (at most seven
/// at `r = 1.01`); their table, like their number of levels, grows as
/// `1/log2 r`.
///
/// `bounds` starts empty and grows on demand, in a cold helper, to the
/// largest level seen: one allocation of 64 entries covers every weight
/// below `r^60`.
#[derive(Clone, Debug)]
pub struct LevelTable {
    r: f64,
    /// `2^-52 / log2 r` and `1023 / log2 r`: a weight's bits times the
    /// first, minus the second, estimate its level from below.
    per_bit: f64,
    bias: f64,
    bounds: Vec<f64>,
}

impl LevelTable {
    /// Table for base `r > 1`; allocates nothing until the first lookup.
    pub fn new(r: f64) -> Self {
        assert!(r > 1.0, "r must exceed 1");
        let inv_log2_r = 1.0 / r.log2();
        Self {
            r,
            per_bit: inv_log2_r * powi(2.0, -52),
            bias: 1023.0 * inv_log2_r,
            bounds: Vec::new(),
        }
    }

    /// `level_of(weight, r)`, bit for bit.
    #[inline]
    pub fn level(&mut self, weight: f64) -> u32 {
        debug_assert!(
            weight > 0.0 && weight.is_finite(),
            "weight {weight} must be positive and finite"
        );
        let mut j = self.start(weight);
        loop {
            if j + 3 >= self.bounds.len() {
                self.grow(j + 4);
            }
            let b = &self.bounds;
            j += usize::from(b[j + 1] <= weight);
            j += usize::from(b[j + 1] <= weight);
            let more = b[j + 1] <= weight;
            j += usize::from(more);
            if !more {
                return j as u32;
            }
        }
    }

    /// Where [`Self::level`] starts its climb: one below the estimate, never
    /// above the level.
    #[inline]
    fn start(&self, weight: f64) -> usize {
        let estimate = weight.to_bits() as i64 as f64 * self.per_bit - self.bias;
        // Truncation equals floor here: negative starts clamp to 0 anyway.
        (estimate as i64 - 1).max(0) as usize
    }

    /// Extends `bounds` to `len` entries. Past the first infinite power the
    /// table holds NaN, which no weight compares at or above, so the climb
    /// ends there even for a non-finite weight.
    #[cold]
    #[inline(never)]
    fn grow(&mut self, len: usize) {
        self.bounds
            .reserve(len.max(64).saturating_sub(self.bounds.len()));
        while self.bounds.len() < len {
            let next = match self.bounds.last() {
                Some(b) if !b.is_finite() => f64::NAN,
                _ => powi(self.r, self.bounds.len() as i64),
            };
            self.bounds.push(next);
        }
    }
}

/// Epoch index of a threshold statistic `u`: `Some(j)` with
/// `u ∈ [r^j, r^(j+1))` once `u ≥ 1`, `None` before that (the paper's
/// "epoch 0 until u first reaches r"; sites filter nothing while `None`).
#[inline]
pub fn epoch_of(u: f64, r: f64) -> Option<i64> {
    if u >= 1.0 {
        Some(floor_log_base(r, u))
    } else {
        None
    }
}

/// The filtering threshold `r^j` announced for epoch `j`.
pub fn epoch_threshold(epoch: i64, r: f64) -> f64 {
    powi(r, epoch)
}

/// Compact growable bitset over level indices — the per-site `saturated_j`
/// bits (O(1) machine words for any realistic weight range, Proposition 6).
#[derive(Clone, Debug, Default)]
pub struct LevelBits {
    words: Vec<u64>,
}

impl LevelBits {
    /// Empty bitset (all levels unsaturated).
    pub fn new() -> Self {
        Self::default()
    }

    /// Tests bit `level`.
    pub fn get(&self, level: u32) -> bool {
        let w = (level / 64) as usize;
        self.words
            .get(w)
            .is_some_and(|&word| word >> (level % 64) & 1 == 1)
    }

    /// Sets bit `level`.
    pub fn set(&mut self, level: u32) {
        let w = (level / 64) as usize;
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        self.words[w] |= 1 << (level % 64);
    }

    /// Number of storage words (for space accounting tests).
    pub fn words(&self) -> usize {
        self.words.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_of_basic() {
        // r = 2: [1,2) -> 0 (w < r), [2,4) -> 1, [4,8) -> 2 ...
        assert_eq!(level_of(1.0, 2.0), 0);
        assert_eq!(level_of(1.9, 2.0), 0);
        assert_eq!(level_of(2.0, 2.0), 1);
        assert_eq!(level_of(3.999, 2.0), 1);
        assert_eq!(level_of(4.0, 2.0), 2);
        assert_eq!(level_of(1024.0, 2.0), 10);
    }

    #[test]
    fn level_of_sub_r_weights_are_zero() {
        assert_eq!(level_of(0.25, 2.0), 0);
        assert_eq!(level_of(0.001, 8.0), 0);
        assert_eq!(level_of(7.999, 8.0), 0);
        assert_eq!(level_of(8.0, 8.0), 1);
    }

    #[test]
    fn epoch_of_tracks_u() {
        assert_eq!(epoch_of(0.0, 2.0), None);
        assert_eq!(epoch_of(0.99, 2.0), None);
        assert_eq!(epoch_of(1.0, 2.0), Some(0));
        assert_eq!(epoch_of(1.5, 2.0), Some(0));
        assert_eq!(epoch_of(2.0, 2.0), Some(1));
        assert_eq!(epoch_of(1023.0, 2.0), Some(9));
        assert_eq!(epoch_of(1024.0, 2.0), Some(10));
    }

    #[test]
    fn threshold_is_power() {
        assert_eq!(epoch_threshold(0, 2.0), 1.0);
        assert_eq!(epoch_threshold(3, 2.0), 8.0);
        assert_eq!(epoch_threshold(2, 2.5), 6.25);
    }

    #[test]
    fn level_bits_set_get() {
        let mut b = LevelBits::new();
        assert!(!b.get(0));
        assert!(!b.get(200));
        b.set(0);
        b.set(63);
        b.set(64);
        b.set(200);
        assert!(b.get(0) && b.get(63) && b.get(64) && b.get(200));
        assert!(!b.get(1) && !b.get(65) && !b.get(199));
        // ~200 levels need only 4 words: O(1) space in practice.
        assert!(b.words() <= 4);
    }

    #[test]
    fn level_table_is_exact_at_every_boundary() {
        // Every boundary powi(r, j) and its float neighbours, and every
        // power of two, in ascending then descending order (the table grows
        // differently each way). For r just above a power of two, the
        // estimate `(e + f) / log2 r` at a boundary sits just below an
        // integer: the lookup's start margin matters.
        let rs = [1.001, 1.01, 1.062, 1.5, 2.0, 2.5, 15.625, 100.0];
        let near_pow2 = [4.0f64.next_up(), 8.0f64.next_up(), 32.0f64.next_up()];
        for r in rs.into_iter().chain(near_pow2) {
            let mut weights = Vec::new();
            for j in 0..2_000i64 {
                let b = powi(r, j);
                if !b.is_finite() {
                    break;
                }
                weights.extend([b.next_down(), b, b.next_up()]);
            }
            weights.extend((-1022..1024).map(|e| powi(2.0, e)));
            weights.extend([f64::MIN_POSITIVE, 1e-300, 0.5, f64::MAX]);
            for order in [false, true] {
                let mut table = LevelTable::new(r);
                let ws: Vec<f64> = if order {
                    weights.iter().rev().copied().collect()
                } else {
                    weights.clone()
                };
                for w in ws {
                    assert_eq!(table.level(w), level_of(w, r), "r = {r}, w = {w:e}");
                }
            }
        }
    }

    #[test]
    fn level_table_climb_is_short_for_every_base() {
        // The start trails the level by at most ceil(0.0861 / log2 r) + 1
        // steps: two from r = 1.062 up, and bounded below it too.
        let mut rng = crate::rng::Rng::new(5);
        for r in [1.001f64, 1.01, 1.062, 1.1, 1.5, 2.0, 15.625, 1e3] {
            let most = (0.0861 / r.log2()).ceil() as usize + 1;
            assert!(r < 1.062 || most == 2);
            let mut table = LevelTable::new(r);
            for _ in 0..20_000 {
                let w = powi(2.0, rng.range(200) as i64 - 100) * (1.0 + rng.f64());
                let level = table.level(w) as usize;
                let start = table.start(w);
                assert!(
                    start <= level && level - start <= most,
                    "r = {r}, w = {w:e}: start {start}, level {level}"
                );
            }
        }
    }

    #[test]
    fn level_table_climb_stops_past_the_last_finite_power() {
        // Item::new rejects non-finite weights and `level` debug-asserts;
        // the lookup must still terminate on them. Past 2^1023 the table
        // holds +inf and then NaN, so no climb passes index 1024.
        let mut table = LevelTable::new(2.0);
        table.grow(1_100);
        assert_eq!(table.bounds[1023], powi(2.0, 1023));
        assert_eq!(table.bounds[1024], f64::INFINITY);
        assert!(table.bounds[1025..].iter().all(|b| b.is_nan()));
        assert_eq!(table.level(f64::MAX), 1023);
        #[cfg(not(debug_assertions))]
        {
            assert_eq!(table.level(f64::INFINITY), 1024);
            assert!(table.level(f64::NAN) <= 1024);
        }
    }

    #[test]
    fn level_and_epoch_consistent() {
        // An item of weight w in level j, when it becomes the s-th largest
        // key region marker u=w, yields epoch >= j is not required; but the
        // bucketing functions must agree on exact powers.
        for j in 0..30u32 {
            let r = 2.0;
            let w = powi(r, j as i64);
            assert_eq!(level_of(w, r), if w < r { 0 } else { j });
            if w >= 1.0 {
                assert_eq!(epoch_of(w, r), Some(j as i64));
            }
        }
    }
}
