//! Operating the sampler like production infrastructure: hierarchical
//! fan-in, coordinator checkpoint/restore, and free analytics off the live
//! sample (subset sums via the priority-sampling connection, the paper's
//! reference [17]).
//!
//! ```text
//! cargo run --release --example failover_merge
//! ```

use dwrs::core::estimate::{subset_sum, total_weight_estimate};
use dwrs::core::swor::{SworConfig, SworCoordinator};
use dwrs::runtime::{run_scenario, EngineKind, Scenario, Topology, Workload};
use dwrs::sim::build_swor;
use dwrs::workloads;

fn main() {
    // ---- 1. Hierarchical deployment: 4 regions × 8 sites ---------------
    // Each region's aggregator syncs its sample to the root every 500 of
    // its items; the run ends with a final sync that makes the root exact.
    let s = 64;
    let (regions, sites_per_region) = (4, 8);
    let events = workloads::pareto(80_000, 1.3, 1.0, 11);
    let total: f64 = events.iter().map(|e| e.weight).sum();
    let scenario = Scenario::new(EngineKind::Lockstep, regions * sites_per_region, s)
        .with_seed(2026)
        .with_workload(Workload::items(events.clone()))
        .with_topology(Topology::Tree {
            groups: regions,
            sync_every: 500,
        });
    let report = run_scenario(&scenario).expect("fan-in tree run");
    let root = report.sample;
    println!(
        "fan-in tree: {regions} regions, root sample of {}",
        root.len()
    );
    println!(
        "  total messages (intra-region + region->root): {}",
        report.metrics.total()
    );

    // ---- 2. Free analytics off the sample ------------------------------
    // The root sample is an exact top-s of independent keys, so the
    // rank-conditioning estimator gives unbiased subset sums.
    let est_w = total_weight_estimate(&root, false);
    println!("\nanalytics from the sample alone:");
    println!("  true total weight  : {total:.4e}");
    println!(
        "  estimated total    : {est_w:.4e}  (err {:.1}%)",
        100.0 * (est_w - total).abs() / total
    );
    let odd_true: f64 = events
        .iter()
        .filter(|e| e.id % 2 == 1)
        .map(|e| e.weight)
        .sum();
    let odd_est = subset_sum(&root, false, |it| it.id % 2 == 1);
    println!(
        "  odd-id subset sum  : true {odd_true:.4e}, estimated {odd_est:.4e}  (err {:.1}%)",
        100.0 * (odd_est - odd_true).abs() / odd_true
    );

    // ---- 3. Coordinator failover via checkpoint/restore ----------------
    let mut primary = build_swor(SworConfig::new(16, 4), 77);
    let stream = workloads::uniform_weights(30_000, 1.0, 5.0, 3);
    for (t, it) in stream.iter().take(15_000).enumerate() {
        primary.step(t % 4, *it);
    }
    // Checkpoint mid-stream; "crash"; bring up a standby from the snapshot.
    let snap = primary.coordinator.snapshot();
    let mut standby = SworCoordinator::restore(snap);
    // Keep feeding both the same protocol messages and compare.
    let mut downs = Vec::new();
    for (t, it) in stream.iter().enumerate().skip(15_000) {
        // Route through the primary's sites; tee the upstream messages.
        let site = t % 4;
        if let Some(up) = dwrs::core::swor::SworSite::observe(&mut primary.sites[site], *it) {
            primary.coordinator.receive(up, &mut downs);
            for d in downs.drain(..) {
                for st in &mut primary.sites {
                    st.receive(&d);
                }
            }
            standby.receive(up, &mut downs);
            downs.clear();
        }
    }
    let a: Vec<u64> = primary
        .coordinator
        .sample()
        .iter()
        .map(|k| k.item.id)
        .collect();
    let b: Vec<u64> = standby.sample().iter().map(|k| k.item.id).collect();
    println!(
        "\nfailover: primary and restored standby agree on the sample: {}",
        a == b
    );
    println!("  sample ids: {a:?}");
}
