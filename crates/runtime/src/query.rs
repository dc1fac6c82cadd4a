//! The multi-protocol query layer: which *application* a [`Scenario`]
//! runs.
//!
//! The paper's headline motivation for distributed weighted SWOR is the
//! applications it unlocks; this module promotes them from centralized
//! `crates/apps` simulations to first-class runtime protocols, each
//! running streamed on every engine (lockstep | threads | epoll) and
//! topology (flat | tree) with the same per-tier metrics, invariant
//! checks, and [`crate::driver::RunReport`] as plain SWOR:
//!
//! | query | paper | site node | coordinator | answer |
//! |---|---|---|---|---|
//! | [`Query::Swor`] | §3, Thm 1–3 | `SworSite` | `SworCoordinator` | the weighted sample |
//! | [`Query::L1`] | §5, Thm 6 | [`dwrs_apps::L1Site`] (duplication) | `SworCoordinator` | `W̃ = s·u/ℓ` |
//! | [`Query::ResidualHh`] | §4, Thm 4 | `SworSite` (s = 6·ln(1/εδ)/ε) | `SworCoordinator` | top `2/ε` by weight + oracle recall |
//! | [`Query::SlidingWindow`] | §7 (open problem) | [`dwrs_apps::WindowSite`] | [`dwrs_apps::WindowCoordinator`] | the window sample |
//!
//! The heavy-hitter recall is checked against the **exact** streaming
//! oracle ([`dwrs_apps::ResidualOracle`]) on a second pass over the
//! seeded source — O(1/ε) memory however long the stream.

use std::time::{Duration, Instant};

use dwrs_apps::l1::L1Config;
use dwrs_apps::residual_hh::{recall, ResidualHhConfig, ResidualOracle};
use dwrs_apps::{L1Site, WindowCoordinator, WindowSite};
use dwrs_core::rng::mix;
use dwrs_core::swor::CoordStats;
use dwrs_core::{Item, Keyed};
use dwrs_sim::{swor_coordinator, swor_site, tree_group_seed};

use crate::driver::{drive_flat, drive_tree, DispatcherStats, Scenario, StagedSource};
use crate::engine::RuntimeError;
use crate::tree::TreeOutput;

/// Which application protocol a [`Scenario`] runs. Parse from the CLI
/// syntax with [`Query::parse`]; defaults are the paper's constants.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Query {
    /// Continuous distributed weighted sampling without replacement — the
    /// base protocol; the scenario's `s` is the sample size.
    Swor,
    /// L1 (total weight) tracking via duplication into weighted SWOR
    /// (Theorem 6): the coordinator continuously holds `W̃ = (1±ε)·W`.
    L1 {
        /// Relative accuracy `ε ∈ (0, 0.5)`.
        eps: f64,
        /// Per-time failure probability `δ ∈ (0, 1)`.
        delta: f64,
    },
    /// Heavy hitters with residual error (Theorem 4): every item with
    /// `w ≥ ε·‖x_tail(1/ε)‖₁` is returned among the top `2/ε` sample
    /// items by weight, with recall checked against the exact oracle.
    ResidualHh {
        /// Residual heaviness threshold `ε ∈ (0, 1)`.
        eps: f64,
        /// Failure probability `δ ∈ (0, 1)`.
        delta: f64,
    },
    /// Weighted SWOR over the last `window` arrivals (the sequence-based
    /// sliding window the paper's conclusion poses as an open problem).
    /// Requires item ids to be the global arrival order — true for every
    /// built-in generator and its CSV round trip.
    SlidingWindow {
        /// Window length, in arrivals.
        window: u64,
    },
}

impl Query {
    /// Parses a `kind[:params]` spec (the CLI `--query` syntax): `swor`,
    /// `l1[:eps[,delta]]`, `rhh[:eps[,delta]]`, `window[:len]`.
    pub fn parse(spec: &str) -> Result<Query, String> {
        let (name, params) = match spec.split_once(':') {
            Some((a, b)) => (a, b),
            None => (spec, ""),
        };
        let nums: Vec<f64> = if params.is_empty() {
            Vec::new()
        } else {
            params
                .split(',')
                .map(|x| {
                    x.parse::<f64>()
                        .map_err(|_| format!("bad query parameter '{x}'"))
                })
                .collect::<Result<_, _>>()?
        };
        let get = |i: usize, default: f64| nums.get(i).copied().unwrap_or(default);
        let q = match name {
            "swor" => Query::Swor,
            "l1" => Query::L1 {
                eps: get(0, 0.2),
                delta: get(1, 0.25),
            },
            "rhh" => Query::ResidualHh {
                eps: get(0, 0.2),
                delta: get(1, 0.05),
            },
            "window" => Query::SlidingWindow {
                window: get(0, 100_000.0) as u64,
            },
            other => {
                return Err(format!(
                    "unknown query '{other}' (expected swor | l1 | rhh | window)"
                ))
            }
        };
        q.validate()?;
        Ok(q)
    }

    /// Validates the query parameters (typed errors, never a mid-run
    /// panic).
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            Query::Swor => Ok(()),
            Query::L1 { eps, delta } => {
                if !(eps > 0.0 && eps < 0.5 && eps.is_finite()) {
                    return Err(format!("l1 eps must be in (0, 0.5), got {eps}"));
                }
                if !(delta > 0.0 && delta < 1.0) {
                    return Err(format!("l1 delta must be in (0, 1), got {delta}"));
                }
                Ok(())
            }
            Query::ResidualHh { eps, delta } => {
                if !(eps > 0.0 && eps < 1.0 && eps.is_finite()) {
                    return Err(format!("rhh eps must be in (0, 1), got {eps}"));
                }
                if !(delta > 0.0 && delta < 1.0) {
                    return Err(format!("rhh delta must be in (0, 1), got {delta}"));
                }
                Ok(())
            }
            Query::SlidingWindow { window } => {
                if window == 0 {
                    return Err("window length must be at least 1".into());
                }
                Ok(())
            }
        }
    }

    /// The query's short CLI name.
    pub fn name(&self) -> &'static str {
        match self {
            Query::Swor => "swor",
            Query::L1 { .. } => "l1",
            Query::ResidualHh { .. } => "rhh",
            Query::SlidingWindow { .. } => "window",
        }
    }

    /// The effective sample size of the underlying protocol: the
    /// scenario's `s` for SWOR and the window sampler, the theorems'
    /// derived sizes for L1 (`⌈10·ln(1/δ)/ε²⌉`) and residual heavy
    /// hitters (`⌈6·ln(1/(εδ))/ε⌉`).
    pub fn sample_size(&self, scenario_s: usize) -> usize {
        match *self {
            Query::Swor | Query::SlidingWindow { .. } => scenario_s,
            Query::L1 { eps, delta } => L1Config::new(eps, delta, 1).sample_size(),
            Query::ResidualHh { eps, delta } => ResidualHhConfig::new(eps, delta, 1).sample_size(),
        }
    }

    /// The duplication factor `ℓ` (L1 only).
    pub fn duplication(&self) -> Option<u64> {
        match *self {
            Query::L1 { eps, delta } => Some(L1Config::new(eps, delta, 1).duplication()),
            _ => None,
        }
    }
}

impl std::fmt::Display for Query {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Query::Swor => write!(f, "swor"),
            Query::L1 { eps, delta } => write!(f, "l1:{eps},{delta}"),
            Query::ResidualHh { eps, delta } => write!(f, "rhh:{eps},{delta}"),
            Query::SlidingWindow { window } => write!(f, "window:{window}"),
        }
    }
}

/// The query-specific part of a [`crate::driver::RunReport`].
#[derive(Clone, Debug)]
pub enum QueryAnswer {
    /// The sample itself is the answer.
    Swor,
    /// The L1 tracker's output `W̃ = s·u/ℓ`, checked against the exact
    /// stream weight.
    L1 {
        /// The estimate `W̃`.
        estimate: f64,
        /// The exact total weight of the stream.
        true_weight: f64,
        /// `|W̃ - W| / W`.
        rel_error: f64,
        /// The duplication factor `ℓ` in force.
        ell: u64,
    },
    /// The residual-heavy-hitter candidate set (top `2/ε` sample items by
    /// weight) with exact-oracle recall.
    ResidualHh {
        /// The candidate items, heaviest first.
        candidates: Vec<Item>,
        /// Size of the oracle's required set.
        required: usize,
        /// Fraction of the required set recovered (1.0 when empty).
        recall: f64,
    },
    /// The sliding-window sample (the report's `sample` field, filtered
    /// to the final window).
    SlidingWindow {
        /// Window length, in arrivals.
        window: u64,
    },
}

/// Everything a flat query execution hands back to the driver.
pub(crate) struct FlatOutcome {
    pub items: u64,
    pub weight: f64,
    /// Wall clock of the engine run alone (dispatch + protocol +
    /// shutdown) — answer post-processing such as the rhh oracle's
    /// second streaming pass is excluded, so reported throughput stays
    /// comparable across queries.
    pub elapsed: Duration,
    pub sample: Vec<Keyed>,
    pub metrics: dwrs_sim::Metrics,
    pub u: Option<f64>,
    pub coord_stats: Option<CoordStats>,
    pub final_epoch: Option<i64>,
    pub dispatcher: Option<DispatcherStats>,
    pub answer: QueryAnswer,
}

/// Canonical seed derivation for L1 sites (per deployment seed and site).
/// Public so daemon attach clients derive the same per-site keys as the
/// batch engines for a given deployment seed.
pub fn l1_site_seed(seed: u64, i: usize) -> u64 {
    mix(seed, 0x1151_0000 + i as u64)
}

/// Canonical seed derivation for window-sampler sites (see
/// [`l1_site_seed`]).
pub fn window_site_seed(seed: u64, i: usize) -> u64 {
    mix(seed, 0x3140_0000 + i as u64)
}

/// Executes a flat (single-coordinator) scenario for its query.
pub(crate) fn run_query_flat(
    sc: &Scenario,
    input: StagedSource,
) -> Result<FlatOutcome, RuntimeError> {
    let t0 = Instant::now();
    let s_eff = sc.query.sample_size(sc.s);
    match sc.query {
        Query::Swor | Query::ResidualHh { .. } => {
            let cfg = sc.swor_config_with(s_eff, sc.k);
            let sites: Vec<_> = (0..sc.k).map(|i| swor_site(&cfg, sc.seed, i)).collect();
            let coordinator = swor_coordinator(cfg, sc.seed);
            let (items, weight, out, dispatcher) = drive_flat(sc, input, sites, coordinator)?;
            let elapsed = t0.elapsed();
            let sample = out.coordinator.sample();
            let answer = match sc.query {
                Query::ResidualHh { eps, delta } => residual_answer(sc, &sample, eps, delta)?,
                _ => QueryAnswer::Swor,
            };
            Ok(FlatOutcome {
                items,
                weight,
                elapsed,
                u: Some(out.coordinator.u()),
                coord_stats: Some(out.coordinator.stats),
                final_epoch: out.coordinator.epoch(),
                sample,
                metrics: out.metrics,
                dispatcher,
                answer,
            })
        }
        Query::L1 { .. } => {
            let ell = sc.query.duplication().expect("l1 has a duplication factor");
            let cfg = sc.swor_config_with(s_eff, sc.k);
            let sites: Vec<_> = (0..sc.k)
                .map(|i| L1Site::new(&cfg, ell, l1_site_seed(sc.seed, i)))
                .collect();
            let coordinator = swor_coordinator(cfg, sc.seed);
            let (items, weight, out, dispatcher) = drive_flat(sc, input, sites, coordinator)?;
            let elapsed = t0.elapsed();
            let sample = out.coordinator.sample();
            let answer = l1_answer(s_eff, ell, l1_u(&sample, s_eff), weight);
            Ok(FlatOutcome {
                items,
                weight,
                elapsed,
                u: Some(out.coordinator.u()),
                coord_stats: Some(out.coordinator.stats),
                final_epoch: out.coordinator.epoch(),
                sample,
                metrics: out.metrics,
                dispatcher,
                answer,
            })
        }
        Query::SlidingWindow { window } => {
            let sites: Vec<_> = (0..sc.k)
                .map(|i| WindowSite::new(s_eff, window, window_site_seed(sc.seed, i)))
                .collect();
            let coordinator = WindowCoordinator::new(s_eff, window);
            let (items, weight, out, dispatcher) = drive_flat(sc, input, sites, coordinator)?;
            let elapsed = t0.elapsed();
            Ok(FlatOutcome {
                items,
                weight,
                elapsed,
                sample: out.coordinator.sample(),
                metrics: out.metrics,
                u: None,
                coord_stats: None,
                final_epoch: None,
                dispatcher,
                answer: QueryAnswer::SlidingWindow { window },
            })
        }
    }
}

/// Everything a tree query execution hands back to the driver.
pub(crate) struct TreeOutcome {
    pub items: u64,
    pub weight: f64,
    /// Wall clock of the engine run alone (see [`FlatOutcome::elapsed`]).
    pub elapsed: Duration,
    pub out: TreeOutput,
    pub dispatcher: Option<DispatcherStats>,
    pub answer: QueryAnswer,
}

/// Executes a tree (groups + aggregators + root) scenario for its query.
pub(crate) fn run_query_tree(
    sc: &Scenario,
    input: StagedSource,
    groups: usize,
    sync_every: u64,
) -> Result<TreeOutcome, RuntimeError> {
    let t0 = Instant::now();
    let s_eff = sc.query.sample_size(sc.s);
    let k_per_group = sc.k / groups;
    let group_cfg = sc.swor_config_with(s_eff, k_per_group);
    let (items, weight, mut out, dispatcher) = match sc.query {
        Query::Swor | Query::ResidualHh { .. } => drive_tree(
            sc,
            input,
            groups,
            sync_every,
            |gi, i| swor_site(&group_cfg, tree_group_seed(sc.seed, gi), i),
            |gi| swor_coordinator(group_cfg.clone(), tree_group_seed(sc.seed, gi)),
            s_eff,
        )?,
        Query::L1 { .. } => {
            let ell = sc.query.duplication().expect("l1 has a duplication factor");
            drive_tree(
                sc,
                input,
                groups,
                sync_every,
                |gi, i| {
                    L1Site::new(
                        &group_cfg,
                        ell,
                        l1_site_seed(tree_group_seed(sc.seed, gi), i),
                    )
                },
                |gi| swor_coordinator(group_cfg.clone(), tree_group_seed(sc.seed, gi)),
                s_eff,
            )?
        }
        Query::SlidingWindow { window } => drive_tree(
            sc,
            input,
            groups,
            sync_every,
            |gi, i| {
                WindowSite::new(
                    s_eff,
                    window,
                    window_site_seed(tree_group_seed(sc.seed, gi), i),
                )
            },
            |_| WindowCoordinator::new(s_eff, window),
            s_eff,
        )?,
    };
    let elapsed = t0.elapsed();
    let answer = match sc.query {
        Query::Swor => QueryAnswer::Swor,
        Query::ResidualHh { eps, delta } => residual_answer(sc, &out.root_sample, eps, delta)?,
        Query::L1 { .. } => {
            let ell = sc.query.duplication().expect("l1 has a duplication factor");
            l1_answer(s_eff, ell, l1_u(&out.root_sample, s_eff), weight)
        }
        Query::SlidingWindow { window } => {
            // Each group expired by its *own* watermark (≤ the global one);
            // re-filter the merged sample by the true global cutoff before
            // answering, so no globally-expired entry survives.
            let cutoff = items.saturating_sub(window);
            let mut merged: Vec<Keyed> = out
                .group_samples
                .iter()
                .flatten()
                .filter(|kd| kd.item.id >= cutoff)
                .copied()
                .collect();
            // No dedup needed: groups partition the sites, so no item id
            // can appear in two group samples.
            merged.sort_by(|a, b| b.key.total_cmp(&a.key));
            merged.truncate(s_eff);
            out.root_sample = merged;
            QueryAnswer::SlidingWindow { window }
        }
    };
    Ok(TreeOutcome {
        items,
        weight,
        elapsed,
        out,
        dispatcher,
        answer,
    })
}

/// Algorithm 1's output statistic: the s-th largest key of the *query*
/// set (sample ∪ withheld, which `SworCoordinator::sample` and the tree's
/// root merge both return sorted descending) — not of the released set
/// alone, since withheld heavy levels carry the largest keys. Zero until
/// the sample fills (no estimate yet).
fn l1_u(sample: &[Keyed], s: usize) -> f64 {
    dwrs_apps::live::sth_largest_key(sample, s)
}

/// Assembles the L1 answer from the s-th-largest key statistic.
fn l1_answer(s: usize, ell: u64, u: f64, true_weight: f64) -> QueryAnswer {
    let estimate = dwrs_apps::live::l1_estimate(s, ell, u);
    let rel_error = if true_weight > 0.0 {
        (estimate - true_weight).abs() / true_weight
    } else {
        0.0
    };
    QueryAnswer::L1 {
        estimate,
        true_weight,
        rel_error,
        ell,
    }
}

/// Assembles the residual-heavy-hitter answer: top `2/ε` sample items by
/// weight, with recall measured against the exact oracle on a second
/// streaming pass over the scenario's seeded source.
fn residual_answer(
    sc: &Scenario,
    sample: &[Keyed],
    eps: f64,
    delta: f64,
) -> Result<QueryAnswer, RuntimeError> {
    let cfg = ResidualHhConfig::new(eps, delta, sc.k.max(1));
    let candidates: Vec<Item> = dwrs_apps::live::rhh_candidates(sample, cfg.output_size())
        .into_iter()
        .map(|kd| kd.item)
        .collect();
    // Second pass: the exact oracle over the identical stream (sources are
    // seeded and deterministic, CSVs reopen).
    let mut oracle = ResidualOracle::new(eps);
    let source = sc
        .source()
        .map_err(|e| RuntimeError::InvalidScenario(format!("oracle pass: {e}")))?;
    for item in source {
        oracle.observe(item);
    }
    let required = oracle.required();
    let r = recall(&required, &candidates);
    Ok(QueryAnswer::ResidualHh {
        candidates,
        required: required.len(),
        recall: r,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_specs_parse() {
        assert_eq!(Query::parse("swor").unwrap(), Query::Swor);
        assert_eq!(
            Query::parse("l1:0.1,0.05").unwrap(),
            Query::L1 {
                eps: 0.1,
                delta: 0.05
            }
        );
        assert_eq!(
            Query::parse("l1").unwrap(),
            Query::L1 {
                eps: 0.2,
                delta: 0.25
            }
        );
        assert_eq!(
            Query::parse("rhh:0.25").unwrap(),
            Query::ResidualHh {
                eps: 0.25,
                delta: 0.05
            }
        );
        assert_eq!(
            Query::parse("window:5000").unwrap(),
            Query::SlidingWindow { window: 5_000 }
        );
        assert!(Query::parse("nope").unwrap_err().contains("unknown query"));
        assert!(Query::parse("l1:abc").is_err());
        assert!(Query::parse("l1:0.9").is_err(), "eps out of range");
        assert!(Query::parse("rhh:0.2,1.5").is_err(), "delta out of range");
        assert!(Query::parse("window:0").is_err());
        assert_eq!(
            Query::parse("l1:0.1,0.05").unwrap().to_string(),
            "l1:0.1,0.05"
        );
    }

    #[test]
    fn derived_sample_sizes_match_the_theorems() {
        // rhh: ceil(6·ln(1/(0.1·0.05))/0.1) = 318 (Theorem 4).
        assert_eq!(
            Query::ResidualHh {
                eps: 0.1,
                delta: 0.05
            }
            .sample_size(64),
            318
        );
        // l1: ceil(10·ln(20)/0.01) = 2996 (Proposition 8).
        assert_eq!(
            Query::L1 {
                eps: 0.1,
                delta: 0.05
            }
            .sample_size(64),
            2996
        );
        // swor/window: the scenario's s.
        assert_eq!(Query::Swor.sample_size(64), 64);
        assert_eq!(Query::SlidingWindow { window: 10 }.sample_size(64), 64);
        assert!(Query::Swor.duplication().is_none());
        assert!(Query::L1 {
            eps: 0.2,
            delta: 0.25
        }
        .duplication()
        .is_some());
    }
}
