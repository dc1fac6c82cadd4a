//! Integration: message-complexity scaling assertions (generous constants;
//! the precise curves are produced by the experiment harness).

use dwrs::core::swor::{swor_bound, SworConfig};
use dwrs::core::swr::SwrConfig;
use dwrs::core::Item;
use dwrs::sim::{assign_sites, build_naive, build_swor, build_swr, Partition};
use dwrs::workloads::{uniform_weights, zipf_ranked};

fn swor_total(s: usize, k: usize, items: &[Item], seed: u64) -> u64 {
    let mut runner = build_swor(SworConfig::new(s, k), seed);
    let sites = assign_sites(Partition::RoundRobin, k, items.len(), seed);
    runner.run(sites.into_iter().zip(items.iter().copied()));
    runner.metrics.total()
}

#[test]
fn swor_messages_logarithmic_in_stream_length() {
    let (s, k) = (16, 16);
    let short = uniform_weights(1 << 12, 1.0, 2.0, 1);
    let long = uniform_weights(1 << 18, 1.0, 2.0, 2);
    let m_short = swor_total(s, k, &short, 3);
    let m_long = swor_total(s, k, &long, 4);
    // 64x more items; messages should grow like log W: well under 3x.
    assert!(
        m_long < 3 * m_short,
        "not logarithmic: {m_short} -> {m_long}"
    );
    // And strongly sublinear overall.
    assert!(m_long < (1 << 18) / 16, "too many messages: {m_long}");
}

#[test]
fn swor_within_constant_of_theorem3_bound() {
    for &(k, s) in &[(4usize, 16usize), (64, 16), (16, 64), (256, 32)] {
        let items = uniform_weights(1 << 14, 1.0, 2.0, k as u64);
        let w: f64 = items.iter().map(|i| i.weight).sum();
        let total = swor_total(s, k, &items, 5);
        let bound = swor_bound(k, s, w);
        let ratio = total as f64 / bound;
        // Constants: early messages cost 4rs per level; allow a wide but
        // finite envelope.
        assert!(
            ratio < 60.0,
            "k={k}, s={s}: ratio {ratio} (total {total}, bound {bound:.0})"
        );
    }
}

#[test]
fn swor_beats_naive_for_large_s_small_k_ratio() {
    // The Θ(s) gap: with k = 64 sites and s = 64, naive pays ~k·s·logW.
    let (k, s) = (64usize, 64usize);
    let items = uniform_weights(1 << 15, 1.0, 2.0, 9);
    let ours = swor_total(s, k, &items, 10);
    let mut naive = build_naive(s, k, 11);
    let sites = assign_sites(Partition::RoundRobin, k, items.len(), 12);
    naive.run(sites.into_iter().zip(items.iter().copied()));
    assert!(
        naive.metrics.total() > 2 * ours,
        "naive {} vs ours {ours}",
        naive.metrics.total()
    );
}

#[test]
fn swor_robust_to_adversarial_partitioning() {
    // Message complexity may shift by constants, not asymptotically, under
    // skewed partitioning.
    let (k, s) = (16usize, 16usize);
    let items = zipf_ranked(1 << 14, 1.2, 13);
    let mut totals = Vec::new();
    for partition in [
        Partition::RoundRobin,
        Partition::Random,
        Partition::SingleSite(0),
        Partition::Skewed { hot: 0.9 },
    ] {
        let mut runner = build_swor(SworConfig::new(s, k), 14);
        let sites = assign_sites(partition, k, items.len(), 15);
        runner.run(sites.into_iter().zip(items.iter().copied()));
        totals.push(runner.metrics.total());
    }
    let max = *totals.iter().max().unwrap() as f64;
    let min = *totals.iter().min().unwrap() as f64;
    assert!(
        max / min < 4.0,
        "partitioning sensitivity too high: {totals:?}"
    );
}

#[test]
fn swr_messages_sublinear_and_weight_independent() {
    // Total weight grows by 100x via weights, messages must stay ~log.
    let (k, s) = (8usize, 8usize);
    let small: Vec<Item> = (0..20_000u64).map(|i| Item::new(i, 1.0)).collect();
    let big: Vec<Item> = (0..20_000u64).map(|i| Item::new(i, 100.0)).collect();
    let run = |items: &[Item], seed: u64| {
        let mut runner = build_swr(SwrConfig::new(s, k), seed);
        let sites = assign_sites(Partition::RoundRobin, k, items.len(), seed);
        runner.run(sites.into_iter().zip(items.iter().copied()));
        runner.metrics.total()
    };
    let m_small = run(&small, 16);
    let m_big = run(&big, 17);
    assert!(m_small < 4_000, "unweighted SWR messages {m_small}");
    // 100x weight == +log(100) additive epochs, not 100x messages.
    assert!(
        m_big < 3 * m_small,
        "weight scaling broke SWR: {m_small} -> {m_big}"
    );
}

#[test]
fn broadcast_accounting_charges_k() {
    let (k, s) = (32usize, 4usize);
    let items = uniform_weights(4_000, 1.0, 2.0, 18);
    let mut runner = build_swor(SworConfig::new(s, k), 19);
    let sites = assign_sites(Partition::RoundRobin, k, items.len(), 20);
    runner.run(sites.into_iter().zip(items.iter().copied()));
    let m = &runner.metrics;
    assert_eq!(
        m.down_total,
        m.broadcast_events * k as u64,
        "each broadcast event must cost exactly k messages"
    );
}
