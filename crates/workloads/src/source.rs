//! Streaming workload sources — the O(1)-memory counterpart of the
//! materializing generators in [`crate::basic`] / [`crate::skewed`].
//!
//! A *source* is any `Iterator<Item = Item> + Send` (captured by the
//! [`ItemSource`] alias trait). The generators here synthesize each item on
//! demand from a seeded [`Rng`], so a 100M-item run costs O(1) memory
//! instead of an O(n) `Vec<Item>`; the `dwrs-runtime` driver feeds them
//! through a bounded dispatcher whose resident footprint is
//! O(chunk × queue), independent of stream length.
//!
//! Each synthetic generator comes in two spellings with one definition:
//! `*_staged` hands out its sequential draws and the pure [`WeightMap`]
//! that finishes each draw into a weight, and `*_stream` is the two
//! composed. A consumer that splits the stream across threads can move
//! the draws and finish the weights in parallel without changing a bit.
//!
//! Where a streaming generator can reproduce its materializing sibling
//! exactly (same per-item formula, same RNG consumption order), it does:
//! [`uniform_stream`], [`pareto_stream`] and [`lognormal_stream`] yield
//! byte-identical items to `uniform_weights` / `pareto` / `lognormal` for
//! the same seed. [`zipf_stream`] necessarily differs: the materializing
//! `zipf_ranked` shuffles a global rank permutation (inherently O(n));
//! the streaming version draws i.i.d. uniform ranks instead, giving the
//! same marginal weight distribution without the without-replacement
//! coupling.

use std::fs::File;
use std::io::{self, BufRead, BufReader};
use std::path::Path;

use dwrs_core::rng::Rng;
use dwrs_core::Item;

/// A streaming, seedable workload source: any sendable iterator of items.
///
/// Blanket-implemented, so plain iterator pipelines (including
/// `vec.into_iter()` — the in-memory adapter) are sources without
/// ceremony, and `Box<dyn ItemSource>` is itself a source.
pub trait ItemSource: Iterator<Item = Item> + Send {}

impl<T: Iterator<Item = Item> + Send> ItemSource for T {}

/// The pure second stage of a staged workload: maps one raw draw, carried
/// in [`Item::weight`], to the item's weight.
///
/// The draws consume the seeded [`Rng`], so they must be made in stream
/// order; the map reads nothing but its draw, so it may run anywhere, in
/// any order — the `dwrs-runtime` driver runs it on the site workers.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum WeightMap {
    /// The draw is the weight (unit, CSV, in-memory and materialized
    /// workloads).
    Identity,
    /// `zipf_iid`: a rank `r` in `1..=n`, held as an exact `f64`, maps to
    /// `(n/r)^alpha`, clamped to ≥ 1.
    Zipf {
        /// Stream length `n`.
        n: f64,
        /// Skew exponent.
        alpha: f64,
    },
    /// Pareto: `u` in `(0, 1)` maps to `w_min·u^(−1/alpha)`.
    Pareto {
        /// Tail exponent.
        alpha: f64,
        /// Scale (minimum weight).
        w_min: f64,
    },
    /// Log-normal: a standard normal `z` maps to `exp(mu + sigma·z)`,
    /// clamped to ≥ 1e-9.
    Lognormal {
        /// Location parameter.
        mu: f64,
        /// Shape parameter.
        sigma: f64,
    },
    /// Uniform: `u` in `[0, 1)` maps to `lo + (hi − lo)·u`.
    Uniform {
        /// Lower weight bound.
        lo: f64,
        /// Upper weight bound.
        hi: f64,
    },
}

impl WeightMap {
    /// The weight of one draw.
    #[inline]
    fn weight(self, draw: f64) -> f64 {
        match self {
            WeightMap::Identity => draw,
            WeightMap::Zipf { n, alpha } => (n / draw).powf(alpha).max(1.0),
            WeightMap::Pareto { alpha, w_min } => w_min * draw.powf(-1.0 / alpha),
            WeightMap::Lognormal { mu, sigma } => (mu + sigma * draw).exp().max(1e-9),
            WeightMap::Uniform { lo, hi } => lo + (hi - lo) * draw,
        }
    }

    /// Finishes one drawn item.
    ///
    /// # Panics
    /// Panics, as [`Item::new`] does, if the weight is not positive and
    /// finite (a pareto or lognormal shape extreme enough to overflow).
    #[inline]
    pub fn finish(self, draw: Item) -> Item {
        Item::new(draw.id, self.weight(draw.weight))
    }

    /// Finishes a frame of drawn items in place, in one pass, adding each
    /// finished weight to `sum` in order; returns the new sum.
    #[inline]
    pub fn finish_frame(self, frame: &mut [Item], mut sum: f64) -> f64 {
        for item in frame {
            *item = self.finish(*item);
            sum += item.weight;
        }
        sum
    }
}

/// A drawn item: its id and a raw draw, which need not be a valid weight
/// (a normal draw may be negative), so [`Item::new`]'s check waits for
/// [`WeightMap::finish`].
fn draw(id: u64, value: f64) -> Item {
    Item { id, weight: value }
}

/// A workload split into its sequential draws and the [`WeightMap`] that
/// finishes them; [`Staged::compose`] is the workload's item stream.
#[derive(Debug)]
pub struct Staged<D> {
    /// Items in stream order whose `weight` field holds the raw draw.
    pub draws: D,
    /// Maps each draw to its weight.
    pub map: WeightMap,
}

impl<D: ItemSource> Staged<D> {
    /// The finished item stream: each draw mapped to its weight.
    pub fn compose(self) -> impl ItemSource {
        let map = self.map;
        self.draws.map(move |draw| map.finish(draw))
    }
}

/// `n` unit-weight items with ids `0..n`, streamed.
pub fn unit_stream(n: u64) -> impl ItemSource {
    (0..n).map(Item::unit)
}

/// `n` items with weights uniform in `[lo, hi)`, streamed. Yields the same
/// items as [`crate::uniform_weights`] for the same seed.
pub fn uniform_stream(n: u64, lo: f64, hi: f64, seed: u64) -> impl ItemSource {
    uniform_staged(n, lo, hi, seed).compose()
}

/// [`uniform_stream`] as draws `u = rng.f64()` and their [`WeightMap`].
pub fn uniform_staged(n: u64, lo: f64, hi: f64, seed: u64) -> Staged<impl ItemSource> {
    assert!(lo > 0.0 && hi > lo, "need 0 < lo < hi");
    let mut rng = Rng::new(seed);
    Staged {
        draws: (0..n).map(move |i| draw(i, rng.f64())),
        map: WeightMap::Uniform { lo, hi },
    }
}

/// `n` items with i.i.d. Zipf-by-rank weights, streamed: each item draws a
/// uniform rank `r` in `1..=n` and gets weight `(n/r)^alpha` (clamped to
/// ≥ 1). Same marginal distribution as [`crate::zipf_ranked`], without the
/// O(n) rank permutation (see the module docs).
pub fn zipf_stream(n: u64, alpha: f64, seed: u64) -> impl ItemSource {
    zipf_staged(n, alpha, seed).compose()
}

/// [`zipf_stream`] as draws `r = 1 + rng.range(n)` and their [`WeightMap`].
pub fn zipf_staged(n: u64, alpha: f64, seed: u64) -> Staged<impl ItemSource> {
    assert!(alpha > 0.0);
    let mut rng = Rng::new(seed);
    // n = 0 is simply the empty stream (the closure never runs).
    Staged {
        draws: (0..n).map(move |i| draw(i, (1 + rng.range(n)) as f64)),
        map: WeightMap::Zipf { n: n as f64, alpha },
    }
}

/// `n` i.i.d. Pareto(α) weights with scale `w_min`, streamed. Yields the
/// same items as [`crate::pareto`] for the same seed.
pub fn pareto_stream(n: u64, alpha: f64, w_min: f64, seed: u64) -> impl ItemSource {
    pareto_staged(n, alpha, w_min, seed).compose()
}

/// [`pareto_stream`] as draws `u = rng.open01()` and their [`WeightMap`].
pub fn pareto_staged(n: u64, alpha: f64, w_min: f64, seed: u64) -> Staged<impl ItemSource> {
    assert!(alpha > 0.0 && w_min > 0.0);
    let mut rng = Rng::new(seed);
    Staged {
        draws: (0..n).map(move |i| draw(i, rng.open01())),
        map: WeightMap::Pareto { alpha, w_min },
    }
}

/// `n` i.i.d. log-normal weights, streamed. Yields the same items as
/// [`crate::lognormal`] for the same seed.
pub fn lognormal_stream(n: u64, mu: f64, sigma: f64, seed: u64) -> impl ItemSource {
    lognormal_staged(n, mu, sigma, seed).compose()
}

/// [`lognormal_stream`] as draws `z = rng.normal()` and their
/// [`WeightMap`].
pub fn lognormal_staged(n: u64, mu: f64, sigma: f64, seed: u64) -> Staged<impl ItemSource> {
    assert!(sigma >= 0.0);
    let mut rng = Rng::new(seed);
    Staged {
        draws: (0..n).map(move |i| draw(i, rng.normal())),
        map: WeightMap::Lognormal { mu, sigma },
    }
}

/// Streams `id,weight` records from a CSV file (the format `dwrs workload`
/// emits). A leading `id,weight` header line is skipped; blank lines are
/// ignored.
///
/// I/O problems at open time surface as the returned `io::Error`; a
/// malformed record mid-stream panics with the offending line number (the
/// driver turns a panicking source into a run error rather than silently
/// truncating the stream).
#[derive(Debug)]
pub struct CsvSource {
    lines: io::Lines<BufReader<File>>,
    line_no: u64,
    header_checked: bool,
}

impl CsvSource {
    /// Opens a CSV workload file.
    pub fn open(path: impl AsRef<Path>) -> io::Result<Self> {
        let file = File::open(path)?;
        Ok(Self {
            lines: BufReader::new(file).lines(),
            line_no: 0,
            header_checked: false,
        })
    }
}

impl Iterator for CsvSource {
    type Item = Item;

    fn next(&mut self) -> Option<Item> {
        loop {
            let line = match self.lines.next()? {
                Ok(l) => l,
                Err(e) => panic!("csv workload: read error at line {}: {e}", self.line_no + 1),
            };
            self.line_no += 1;
            let trimmed = line.trim();
            if trimmed.is_empty() {
                continue;
            }
            if !self.header_checked {
                self.header_checked = true;
                if trimmed.eq_ignore_ascii_case("id,weight") {
                    continue;
                }
            }
            let mut parts = trimmed.splitn(2, ',');
            let mut parse = || -> Option<Item> {
                let id = parts.next()?.trim().parse::<u64>().ok()?;
                let weight = parts.next()?.trim().parse::<f64>().ok()?;
                (weight > 0.0 && weight.is_finite()).then(|| Item::new(id, weight))
            };
            match parse() {
                Some(item) => return Some(item),
                None => panic!(
                    "csv workload: malformed record at line {} (expected 'id,weight' \
                     with a positive finite weight): {trimmed:?}",
                    self.line_no
                ),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    #[test]
    fn unit_stream_matches_unit() {
        let streamed: Vec<Item> = unit_stream(5).collect();
        assert_eq!(streamed, crate::unit(5));
    }

    #[test]
    fn uniform_pareto_lognormal_match_materialized() {
        let n = 500usize;
        let seed = 77;
        assert_eq!(
            uniform_stream(n as u64, 2.0, 5.0, seed).collect::<Vec<_>>(),
            crate::uniform_weights(n, 2.0, 5.0, seed)
        );
        assert_eq!(
            pareto_stream(n as u64, 1.2, 1.0, seed).collect::<Vec<_>>(),
            crate::pareto(n, 1.2, 1.0, seed)
        );
        assert_eq!(
            lognormal_stream(n as u64, 0.5, 1.0, seed).collect::<Vec<_>>(),
            crate::lognormal(n, 0.5, 1.0, seed)
        );
    }

    fn bits(items: &[Item]) -> Vec<(u64, u64)> {
        items
            .iter()
            .map(|it| (it.id, it.weight.to_bits()))
            .collect()
    }

    /// Draws finished frame by frame, as a consumer that moved them would.
    fn finished_in_frames<D: ItemSource>(staged: Staged<D>, frame: usize) -> Vec<Item> {
        let mut draws: Vec<Item> = staged.draws.collect();
        let mut sum = 0.0;
        for chunk in draws.chunks_mut(frame) {
            sum = staged.map.finish_frame(chunk, sum);
        }
        let direct: f64 = draws.iter().map(|it| it.weight).fold(0.0, |a, w| a + w);
        assert_eq!(sum.to_bits(), direct.to_bits(), "running sum in order");
        draws
    }

    #[test]
    fn staged_draws_finish_to_the_stream_bit_for_bit() {
        for seed in [3, 77] {
            for n in [0u64, 1, 1_000] {
                let check = |name: &str, staged: Vec<Item>, stream: Vec<Item>| {
                    assert_eq!(staged.len() as u64, n, "{name} seed {seed}");
                    assert_eq!(bits(&staged), bits(&stream), "{name} seed {seed} n {n}");
                };
                check(
                    "uniform",
                    finished_in_frames(uniform_staged(n, 2.0, 5.0, seed), 7),
                    uniform_stream(n, 2.0, 5.0, seed).collect(),
                );
                check(
                    "zipf",
                    finished_in_frames(zipf_staged(n, 1.1, seed), 7),
                    zipf_stream(n, 1.1, seed).collect(),
                );
                check(
                    "pareto",
                    finished_in_frames(pareto_staged(n, 1.2, 1.5, seed), 7),
                    pareto_stream(n, 1.2, 1.5, seed).collect(),
                );
                check(
                    "lognormal",
                    finished_in_frames(lognormal_staged(n, 0.5, 1.0, seed), 7),
                    lognormal_stream(n, 0.5, 1.0, seed).collect(),
                );
                // zipf_iid has no materializing sibling: pin it to the
                // per-item formula it has always used.
                let mut rng = Rng::new(seed);
                let formula: Vec<Item> = (0..n)
                    .map(|i| {
                        let r = 1 + rng.range(n);
                        Item::new(i, (n as f64 / r as f64).powf(1.1).max(1.0))
                    })
                    .collect();
                check("zipf formula", formula, zipf_stream(n, 1.1, seed).collect());
            }
        }
    }

    #[test]
    fn zipf_stream_is_skewed_and_deterministic() {
        let a: Vec<Item> = zipf_stream(10_000, 1.2, 3).collect();
        let b: Vec<Item> = zipf_stream(10_000, 1.2, 3).collect();
        assert_eq!(a, b);
        let max = a.iter().map(|i| i.weight).fold(0.0, f64::max);
        let min = a.iter().map(|i| i.weight).fold(f64::INFINITY, f64::min);
        assert!(
            (min - 1.0).abs() < 1e-9,
            "min weight clamps to 1, got {min}"
        );
        assert!(max > 1_000.0, "skew too weak: max {max}");
        // Ids are the arrival order.
        assert!(a.iter().enumerate().all(|(i, it)| it.id == i as u64));
    }

    #[test]
    fn csv_round_trips_workload_format() {
        let path = std::env::temp_dir().join(format!("dwrs-csv-test-{}.csv", std::process::id()));
        {
            let mut f = File::create(&path).unwrap();
            writeln!(f, "id,weight").unwrap();
            writeln!(f, "0,1").unwrap();
            writeln!(f).unwrap();
            writeln!(f, "7,2.5").unwrap();
        }
        let got: Vec<Item> = CsvSource::open(&path).unwrap().collect();
        std::fs::remove_file(&path).ok();
        assert_eq!(got, vec![Item::new(0, 1.0), Item::new(7, 2.5)]);
    }

    #[test]
    fn csv_missing_file_is_io_error() {
        assert!(CsvSource::open("/nonexistent/dwrs-nope.csv").is_err());
    }

    #[test]
    fn csv_malformed_record_panics_with_line() {
        let path = std::env::temp_dir().join(format!("dwrs-csv-bad-{}.csv", std::process::id()));
        std::fs::write(&path, "1,2.0\nnot-a-record\n").unwrap();
        let res = std::panic::catch_unwind(|| {
            let _ = CsvSource::open(&path).unwrap().collect::<Vec<_>>();
        });
        std::fs::remove_file(&path).ok();
        let err = res.unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains("line 2"), "{msg}");
    }

    #[test]
    fn vec_into_iter_is_a_source() {
        fn takes_source(s: impl ItemSource) -> usize {
            s.count()
        }
        assert_eq!(takes_source(crate::unit(4).into_iter()), 4);
    }
}
