//! E5: distributed weighted SWR (Corollary 1) — message complexity and
//! marginal distribution.

use dwrs_core::item::total_weight;
use dwrs_core::swr::SwrConfig;
use dwrs_core::Item;
use dwrs_sim::{assign_sites, build_swr, Partition};

use crate::exps::util::swr_bound;
use crate::table::{f, n, Table};
use crate::Scale;

/// E5: message counts across W, plus a marginal-distribution check;
/// returns whether the E5b verdict passed.
pub fn e5_swr(scale: Scale) -> bool {
    let (k, s) = (16usize, 16usize);
    let mut table = Table::new(
        "E5a — weighted SWR messages vs W (k=16, s=16); Cor. 1: (k+s·ln s)·lnW/ln(2+k/s)",
        &[
            "n",
            "W",
            "candidates",
            "bcast_evts",
            "total",
            "bound",
            "ratio",
        ],
    );
    let mut pow = scale.pick(10, 12);
    let max_pow = scale.pick(12, 18);
    while pow <= max_pow {
        let n_items = 1usize << pow;
        // Integer weights 1..=10 (the reduction requires integers).
        let items: Vec<Item> = (0..n_items as u64)
            .map(|i| Item::new(i, 1.0 + (i % 10) as f64))
            .collect();
        let w = total_weight(&items);
        let mut runner = build_swr(SwrConfig::new(s, k), 21);
        let sites = assign_sites(Partition::RoundRobin, k, n_items, 22);
        runner.run(sites.into_iter().zip(items.iter().copied()));
        let m = &runner.metrics;
        let bound = swr_bound(k, s, w);
        table.row(&[
            n(n_items as u64),
            f(w),
            n(m.kind("candidate")),
            n(m.broadcast_events),
            n(m.total()),
            f(bound),
            f(m.total() as f64 / bound),
        ]);
        pow += 2;
    }
    table.print();

    // Marginal check: heaviest item frequency across independent runs.
    let weights = [1.0f64, 2.0, 3.0, 10.0];
    let wtot: f64 = weights.iter().sum();
    let trials = scale.pick(2_000u64, 20_000u64);
    let s_small = 4usize;
    let mut hits = 0u64;
    for t in 0..trials {
        let mut runner = build_swr(SwrConfig::new(s_small, 2), 100 + t);
        for (i, &w) in weights.iter().enumerate() {
            runner.step(i % 2, Item::new(i as u64, w));
        }
        hits += runner
            .coordinator
            .sample()
            .iter()
            .filter(|it| it.id == 3)
            .count() as u64;
    }
    let draws = trials * s_small as u64;
    let emp = hits as f64 / draws as f64;
    let p = weights[3] / wtot;
    let se = (p * (1.0 - p) / draws as f64).sqrt();
    let z = (emp - p) / se;
    let pass = z.abs() < 4.5;
    println!(
        "E5b marginal: P(slot = heaviest) empirical {emp:.4} vs exact {p:.4} (z = {z:.2}) — {}",
        if pass { "PASS" } else { "FAIL" }
    );
    pass
}
