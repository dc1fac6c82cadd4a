//! E18: the sliding-window extension (the paper's open problem) —
//! correctness against windowed resampling and the retained-set size.

use dwrs_apps::SlidingWindowSwor;
use dwrs_core::centralized::{ExpClockSwor, StreamSampler};
use dwrs_core::Item;
use dwrs_workloads::zipf_ranked;

use crate::table::{f, n, Table};
use crate::Scale;

/// E18: window sampler vs fresh resampling of the window; returns whether
/// the verdict passed.
pub fn e18_sliding_window(scale: Scale) -> bool {
    let window = 64u64;
    let s = 4usize;
    let n_items = 256u64;
    let trials = scale.pick(3_000u64, 20_000u64);
    // Track inclusion frequency of a designated heavy in-window item.
    let heavy_pos = n_items - 10;
    let weight = |i: u64| if i == heavy_pos { 12.0 } else { 1.0 };
    let (mut hits_win, mut hits_ref) = (0u64, 0u64);
    for t in 0..trials {
        let mut sw = SlidingWindowSwor::new(s, window, 3_000 + t);
        for i in 0..n_items {
            sw.observe(Item::new(i, weight(i)));
        }
        if sw.sample().iter().any(|k| k.item.id == heavy_pos) {
            hits_win += 1;
        }
        let mut reference = ExpClockSwor::new(s, 9_000 + t);
        for i in (n_items - window)..n_items {
            reference.observe(Item::new(i, weight(i)));
        }
        if reference.sample().iter().any(|it| it.id == heavy_pos) {
            hits_ref += 1;
        }
    }
    let (p_win, p_ref) = (
        hits_win as f64 / trials as f64,
        hits_ref as f64 / trials as f64,
    );
    let se = (p_ref * (1.0 - p_ref) / trials as f64).sqrt() * std::f64::consts::SQRT_2;
    let z = (p_win - p_ref) / se;
    let mut table = Table::new(
        "E18 — sliding-window weighted SWOR vs windowed resampling",
        &["window", "s", "P_incl(window)", "P_incl(resample)", "z"],
    );
    table.row(&[n(window), n(s as u64), f(p_win), f(p_ref), f(z)]);
    table.print();

    // Retained-set size: expected O(s·log(window/s)).
    let mut sw = SlidingWindowSwor::new(8, 4096, 5);
    for it in zipf_ranked(scale.pick(20_000, 100_000), 1.1, 6) {
        sw.observe(it);
    }
    let expect = 8.0 * (4096f64 / 8.0).ln();
    println!(
        "retained set: {} entries (theory ~ s·ln(window/s) = {:.0}) — sublinear in window",
        sw.retained_len(),
        expect
    );
    let pass = z.abs() < 4.5;
    println!("E18 verdict: {}", if pass { "PASS" } else { "FAIL" });
    pass
}
