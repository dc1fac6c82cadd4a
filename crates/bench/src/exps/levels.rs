//! E6 / E15 / E16: the level-set mechanism — Lemma 1's invariant, the
//! ablation with level sets disabled, and the epoch-base sweep.

use dwrs_core::item::total_weight;
use dwrs_core::swor::SworConfig;
use dwrs_sim::Partition;
use dwrs_workloads::{exploding, few_heavy, uniform_weights, Placement};

use crate::exps::util::run_swor;
use crate::table::{f, n, Table};
use crate::Scale;

/// E6: Lemma 1 — every released item is at most `1/(4s)` of released
/// weight; level-set overhead accounting. Returns whether every stream's
/// `ok` column is true.
pub fn e6_level_invariants(scale: Scale) -> bool {
    let n_items = scale.pick(1 << 12, 1 << 15);
    let (k, s) = (8usize, 8usize);
    let mut table = Table::new(
        "E6 — Lemma 1: max released fraction vs bound 1/(4s) (k=8, s=8)",
        &["stream", "max_frac", "bound", "ok", "early", "saturations"],
    );
    let streams = [
        ("uniform", uniform_weights(n_items, 1.0, 2.0, 61)),
        (
            "few_heavy@start",
            few_heavy(
                n_items,
                s / 2,
                1.0 - 1.0 / (100.0 * s as f64),
                Placement::Start,
                62,
            ),
        ),
        (
            "few_heavy@shuffled",
            few_heavy(
                n_items,
                s / 2,
                1.0 - 1.0 / (100.0 * s as f64),
                Placement::Shuffled,
                63,
            ),
        ),
        ("exploding eps=.05", exploding(0.05, 1e12, n_items)),
    ];
    let bound = 1.0 / (4.0 * s as f64);
    let mut pass = true;
    for (name, items) in streams {
        let runner = run_swor(SworConfig::new(s, k), &items, Partition::RoundRobin, 64);
        let st = &runner.coordinator.stats;
        let ok = st.max_release_fraction <= bound + 1e-12;
        pass &= ok;
        table.row(&[
            name.into(),
            f(st.max_release_fraction),
            f(bound),
            ok.to_string(),
            n(runner.metrics.kind("early")),
            n(st.saturations),
        ]);
    }
    table.print();
    pass
}

/// E15: ablation — level sets ON vs OFF, along two axes.
///
/// (a) **Message premium**: withholding costs up to `4rs` early messages
///     per level — a bounded constant-factor insurance premium on
///     adversarial streams; the sampling output is correct either way.
/// (b) **Why the paper needs them** (Section 1.2): with heavy hitters
///     withheld, the s-th largest *released* key concentrates around
///     `W_released/s`, so `u·s + withheld_weight` tracks the true L1. With
///     level sets off, a handful of giants poison the order statistic and
///     `u·s` is off by orders of magnitude — the estimator behind Theorem 6
///     collapses.
pub fn e15_ablation_no_levels(scale: Scale) {
    let (k, s) = (8usize, 64usize);
    let mut table = Table::new(
        "E15a — level sets ON vs OFF: message premium (k=8, s=64)",
        &["stream", "n", "on_total", "off_total", "on/off"],
    );
    let w_target = scale.pick(1e15, 1e30);
    let streams = [
        ("exploding eps=.01", exploding(0.01, w_target, 1 << 20)),
        (
            "uniform",
            dwrs_workloads::uniform_weights(scale.pick(1 << 12, 1 << 16), 1.0, 2.0, 3),
        ),
        (
            "few_heavy@start",
            few_heavy(
                scale.pick(1 << 12, 1 << 15),
                s / 2,
                0.9999,
                Placement::Start,
                65,
            ),
        ),
    ];
    for (name, items) in &streams {
        let on = run_swor(SworConfig::new(s, k), items, Partition::RoundRobin, 66);
        let off = run_swor(
            SworConfig::new(s, k).with_level_sets(false),
            items,
            Partition::RoundRobin,
            66,
        );
        let (a, b) = (on.metrics.total(), off.metrics.total());
        table.row(&[
            (*name).into(),
            n(items.len() as u64),
            n(a),
            n(b),
            f(a as f64 / b as f64),
        ]);
    }
    table.print();
    println!("[withholding is worst-case insurance: a bounded constant-factor premium (≤ ~4r per level) on any stream]");

    // (b) L1-estimability of the s-th key statistic.
    let mut tb = Table::new(
        "E15b — why withholding matters: L1 estimate from the s-th key (k=8, s=64)",
        &[
            "stream",
            "W",
            "est ON (u·s + withheld)",
            "est OFF (u·s)",
            "on_rel_err",
            "off_rel_err",
        ],
    );
    let heavy_streams = [
        (
            "few_heavy(99.99%)@shuffled",
            few_heavy(
                scale.pick(1 << 12, 1 << 15),
                s / 2,
                0.9999,
                Placement::Shuffled,
                67,
            ),
        ),
        (
            "few_heavy(99%)@start",
            few_heavy(
                scale.pick(1 << 12, 1 << 15),
                s / 2,
                0.99,
                Placement::Start,
                68,
            ),
        ),
    ];
    for (name, items) in &heavy_streams {
        let w: f64 = items.iter().map(|i| i.weight).sum();
        let on = run_swor(SworConfig::new(s, k), items, Partition::RoundRobin, 69);
        let off = run_swor(
            SworConfig::new(s, k).with_level_sets(false),
            items,
            Partition::RoundRobin,
            69,
        );
        let est_on = on.coordinator.u() * s as f64 + on.coordinator.withheld_weight();
        let est_off = off.coordinator.u() * s as f64;
        tb.row(&[
            (*name).into(),
            f(w),
            f(est_on),
            f(est_off),
            f((est_on - w).abs() / w),
            f((est_off - w).abs() / w),
        ]);
    }
    tb.print();
    println!("[Section 1.2: heavy items must be withheld for the key order statistic to estimate L1 — the Theorem 6 tracker is built on exactly this]");
}

/// E20: level-capacity factor sweep. The paper fills a level with `4rs`
/// items; capacity `c·rs` bounds every released item by a `1/(c·s)` weight
/// fraction — smaller `c` saves early messages but weakens the Lemma 1
/// margin the concentration arguments lean on.
pub fn e20_capacity_factor(scale: Scale) {
    let n_items = scale.pick(1 << 12, 1 << 16);
    let (k, s) = (8usize, 16usize);
    let items = few_heavy(n_items, s / 2, 0.999, Placement::Shuffled, 73);
    let mut table = Table::new(
        "E20 — level capacity factor sweep (k=8, s=16, few-heavy stream)",
        &[
            "factor",
            "capacity",
            "early",
            "total",
            "max_frac",
            "frac_bound 1/(c·s)",
        ],
    );
    for &factor in &[1.0f64, 2.0, 4.0, 8.0] {
        let cfg = SworConfig::new(s, k).with_level_capacity_factor(factor);
        let cap = cfg.level_capacity();
        let runner = run_swor(cfg, &items, Partition::RoundRobin, 74);
        table.row(&[
            f(factor),
            n(cap as u64),
            n(runner.metrics.kind("early")),
            n(runner.metrics.total()),
            f(runner.coordinator.stats.max_release_fraction),
            f(1.0 / (factor * s as f64)),
        ]);
    }
    table.print();
    println!("[the paper's factor 4 buys a 4x stronger heavy-item margin for a bounded early-message premium]");
}

/// E16: epoch-base sweep — the paper's `r = max(2, k/s)` against other
/// choices; too small means many epoch broadcasts, too large means weak
/// filtering.
pub fn e16_ablation_r(scale: Scale) {
    let n_items = scale.pick(1 << 13, 1 << 17);
    let items = uniform_weights(n_items, 1.0, 2.0, 71);
    let w = total_weight(&items);
    let mut table = Table::new(
        "E16 — epoch base r sweep (k=256, s=16), uniform stream",
        &["r", "early", "regular", "bcasts*k", "total"],
    );
    let (k, s) = (256usize, 16usize);
    let default_r = (k as f64 / s as f64).max(2.0);
    for (label, r) in [
        ("2".to_string(), 2.0),
        (format!("k/s = {default_r}"), default_r),
        (format!("4k/s = {}", 4.0 * default_r), 4.0 * default_r),
        ("256".to_string(), 256.0),
    ] {
        let cfg = SworConfig::new(s, k).with_r(r);
        let runner = run_swor(cfg, &items, Partition::RoundRobin, 72);
        let m = &runner.metrics;
        table.row(&[
            label,
            n(m.kind("early")),
            n(m.kind("regular")),
            n(m.kind("update_epoch") + m.kind("level_saturated")),
            n(m.total()),
        ]);
    }
    table.print();
    let _ = w;
    println!("[paper's r = max(2, k/s) balances broadcast cost (k per epoch) against filtering granularity]");
}
